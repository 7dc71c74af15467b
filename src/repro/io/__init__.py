"""Result persistence: measurement round-trips and the run-unit cache.

:mod:`repro.io.storage` holds the document (de)serialisation of measurements
and experiment results; :mod:`repro.io.artifacts` builds the content-addressed
:class:`RunStore` cache on top of it (ensembles use ``.npz`` via their own
save/load) behind the :class:`RunStoreBackend` protocol; :mod:`repro.io.remote`
adds the HTTP client backend and the :func:`open_store` path-or-URL factory;
:mod:`repro.io.service` is the ``repro serve-store`` server fronting a
filesystem store for remote workers.
"""

from repro.io.artifacts import RunStore, RunStoreBackend, RunStoreError
from repro.io.remote import HTTPRunStore, open_store
from repro.io.storage import load_measurement, save_measurement

__all__ = [
    "save_measurement",
    "load_measurement",
    "RunStore",
    "RunStoreBackend",
    "RunStoreError",
    "HTTPRunStore",
    "open_store",
]

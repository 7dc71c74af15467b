"""Pinned oracle for the figure registry.

Every simulation-backed figure is looked up through :func:`figure_plan`.  For
each figure id and both scales this pins the number of units and a sha256 over
the ordered ``(unit name, content hash)`` pairs, so no refactor of the registry
can rename, reorder, add, drop or re-hash a unit without failing here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.experiments import all_figure_plans, figure_plan

# figure id -> scale -> (unit count, sha256 over "name\thash\n" lines in plan order)
PINS: dict[str, dict[str, tuple[int, str]]] = {
    "fig3": {
        "reduced": (3, "d01259f854e25b1c68c11f4efbd6b60240a7e971d24562c19107bf60616bce39"),
        "full": (3, "7de364868ee3d61c7ad6ee81327890d7958270e20d73e2810625ec3b48aa1bf0"),
    },
    "fig4": {
        "reduced": (1, "4fed7cab828a9c7b6f36a4f4b70da6edbbaa137b179056eed5f70c41bc913d3e"),
        "full": (1, "221a0b64a93f26e0b045b4e467702627df8dbec790e1b174c33487c4eab23eb0"),
    },
    "fig5": {
        "reduced": (1, "2994f6cbc899dbafbee8463b7008d84754c3ac879d05f334859192d31533bcf2"),
        "full": (1, "5061ba58b4b8df21b4befb5f665fa32637ab067fe5f6ebf52aaa304f420233a7"),
    },
    "fig6": {
        "reduced": (1, "45c797e64a6359e64ba73e6dea704f70d84f581b16c63c6f20a09e627f255a77"),
        "full": (1, "a6a366011b35d420bbd1b5d1c39456a91d568d0ffe2a4cbecc1192e4f10b8c40"),
    },
    "fig7": {
        "reduced": (1, "97824acc4ed16acfdeaf0301f3e76b02365f97dc4af25b5a311aec2f0e106f35"),
        "full": (1, "653f51418b636656ca01d1f8e39a4bb28da585e2636071ebdc7248066d257bf9"),
    },
    "fig8": {
        "reduced": (30, "9e6e7b7eba76c67e9a7fe173eb0a6648bcc5e0aadf9d7326226a6e2982c97358"),
        "full": (100, "5c114cf38a06722b8719851f75d5762d44600c6ee60eb3a556c488ba1d14e368"),
    },
    "fig9": {
        "reduced": (18, "b784652cd76fe8d2d690877c1e057158ccdb362168fddf5ab38e9b5e0e0b2f88"),
        "full": (60, "f59dbe43cb4ddeec66c5982ccd5473122762c154db83d4918ffea7b5e246e502"),
    },
    "fig10": {
        "reduced": (18, "ff8d6c71cd8c827943e1f47ce8b38bf67a584fa0d3b566db5853d4dff42b3fdf"),
        "full": (60, "a0b4553b242f51796964a786cf12c6eee67e22243e74f8e821ce048d21222760"),
    },
    "fig11": {
        "reduced": (1, "49c8b6c95681ae260442117205ebf910b09f328cdf58a9486296281d18097d9a"),
        "full": (1, "d872b713f3c9bf9c0b20167d8835249c262dec61732885182fcfd79bf8f6f80b"),
    },
    "fig12": {
        "reduced": (1, "10a83e449cd05afb5d830ea63ad508e3697faacfd1d99fff880e72e2cd0193a9"),
        "full": (1, "46113404d85789064f42f45972a88c171d461a15718b5a0bb2cac87dcb45f012"),
    },
}


def _digest(units) -> str:
    h = hashlib.sha256()
    for unit in units:
        h.update(f"{unit.name}\t{unit.content_hash}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("scale", ["reduced", "full"])
@pytest.mark.parametrize("figure", list(PINS))
def test_figure_units_are_pinned(figure, scale):
    units = figure_plan(figure, full=scale == "full").units()
    count, digest = PINS[figure][scale]
    assert len(units) == count
    assert _digest(units) == digest


@pytest.mark.parametrize("full", [False, True])
def test_registry_holds_exactly_the_pinned_figures(full):
    plans = all_figure_plans(full=full)
    assert list(plans) == list(PINS)
    for figure, plan in plans.items():
        assert _digest(plan.units()) == PINS[figure]["full" if full else "reduced"][1]


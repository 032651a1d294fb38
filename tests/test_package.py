import liftlab

# names the package once exported and no longer has
REMOVED = ("overflow_vanishing_check", "t_families", "project",
           "supersets_within", "LinearConstraint", "capacity_constraint",
           "box_constraints", "all_constraints")


def test_every_export_resolves():
    missing = [name for name in liftlab.__all__ if not hasattr(liftlab, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(liftlab.__all__) == len(set(liftlab.__all__))


def test_removed_names_are_not_exported():
    assert not set(REMOVED) & set(liftlab.__all__)
    assert not any(hasattr(liftlab, name) for name in REMOVED)

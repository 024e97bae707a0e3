"""The package's export list is the union of its modules' lists."""

import gbtscore
from gbtscore import comparisons, diagnostics, errors, rootlaws, sim, solver

MODULES = (comparisons, diagnostics, errors, rootlaws, sim, solver)


def test_all_is_the_union_of_the_module_lists():
    names = gbtscore.__all__
    assert sorted(names) == sorted(["__version__", *(n for m in MODULES for n in m.__all__)])
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(gbtscore, name) is not None
    errors_classes = ["GbtError", "ParameterError", "InputError", "SupportError",
                      "EditError", "MismatchError", "SolverError"]
    assert {"resilience_bound", "ProbeRecord", *errors_classes} <= set(names)
    assert sorted(errors.__all__) == sorted(errors_classes)

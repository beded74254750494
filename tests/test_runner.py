"""What the refinement-study benchmark (perfbench/) relies on in a level.

Its `setup_s` runs from a level's start to the level's first call of
`runner.assemble_load`, so every level loads through that name once per
step, and the error sweep, `runner.compute_errors`, is built once, after
the first load, and takes the steps as they are solved.  Its tracer also
swaps every callable field of a case, which is `load_profiles` alone,
for a timing wrapper through `dataclasses.replace`; the load's time
factors and the exact-field terms are data and pass through unchanged.
"""
import dataclasses

import pytest

from mixpar import eddy2d_case, runner, stokes_case
from mixpar.config import parse_config


@pytest.mark.parametrize("config", [
    "case = stokes\nn = 2\nlevels = 1\nsteps = 3\nprobes = false\n",
    "case = eddy2d\nn = 3\nlevels = 1\nsteps = 3\nprobes = false\n",
], ids=["stokes", "eddy2d"])
def test_level_loads_once_per_step_then_measures_errors(monkeypatch, config):
    calls = []

    def recorded(name):
        fn = getattr(runner, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        monkeypatch.setattr(runner, name, wrapper)

    recorded("assemble_load")
    recorded("compute_errors")
    cfg = parse_config(config)
    runner.run_level(cfg, 0)
    assert calls == (["assemble_load", "compute_errors"]
                     + ["assemble_load"] * (cfg.steps - 1))


@pytest.mark.parametrize("make_case", [stokes_case, eddy2d_case])
def test_case_callables_swap_through_replace(make_case):
    case = make_case()

    def wrapped(fn):
        return lambda *args: fn(*args)

    swapped = {f.name: wrapped(getattr(case, f.name))
               for f in dataclasses.fields(case)
               if callable(getattr(case, f.name))}
    # the load's profiles are a case's only callable field; its time
    # factors and the terms, which the error norms read, are data and
    # stay as they are
    assert set(swapped) == {"load_profiles"}
    copy = dataclasses.replace(case, **swapped)
    assert copy.terms is case.terms
    assert copy.load_factors is case.load_factors
    assert copy.load_profiles is swapped["load_profiles"]

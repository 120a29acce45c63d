"""Nets of observables on a 1+1 lattice and the spacelike interchange test.

Double cones are diamond-shaped regions between two causally ordered
events.  A net assigns generator arrows to cones.  Regions that cannot
signal each other must host observables whose order of application does
not matter; the checker flags every spacelike pair that fails this.
"""

import numpy as np

from vncat import (
    CausalNet,
    Context,
    DoubleCone,
    Event,
    LatticeBounds,
    Obj,
    central_arrow,
    check_causality,
    check_isotony,
    cone_events,
    pair_swap,
    run_scenario,
    spacelike,
)

ctx = Context(2)
I = Obj("I", 1)
bounds = LatticeBounds(0, 4, -4, 4)

# the diamond between (0,0) and (4,0)
diamond = DoubleCone(Event(0, 0), Event(4, 0))
print("events in the diamond:", len(cone_events(diamond)))

left = DoubleCone(Event(0, -3), Event(1, -3))
right = DoubleCone(Event(0, 3), Event(1, 3))
print("left and right columns are spacelike:", spacelike(left, right))
print("left column and the diamond are not:", spacelike(left, diamond))

rng = np.random.default_rng(1)
volt_l = central_arrow(rng.standard_normal((1, 1)), I, I, ctx)
volt_r = central_arrow(rng.standard_normal((1, 1)), I, I, ctx)
swap = pair_swap(0, 1, ctx)

# central observables across spacelike regions: fine
calm = CausalNet(bounds, ctx, {left: [volt_l], right: [volt_r]})
print("\ncentral-only net passes:", check_causality(calm, 1e-8).passed)

# a hidden-factor swap on BOTH sides: the regions can now tell the order
noisy = CausalNet(bounds, ctx, {left: [volt_l, swap], right: [volt_r, swap]})
rep = check_causality(noisy, 1e-8)
print("swap on both sides passes:", rep.passed,
      " worst residual:", rep.worst[2])

# the same pair inside timelike-nested cones is unconstrained
inner = DoubleCone(Event(1, 0), Event(2, 0))
nested = CausalNet(bounds, ctx, {diamond: [swap, volt_l], inner: [swap]})
print("same pair, timelike nesting, passes:", check_causality(nested, 1e-8).passed)
print("and the nesting respects isotony:", check_isotony(nested, 1e-8).passed)

# the CLI wraps the same checks; exit code 0 means every command passed
import json
import pathlib
import tempfile

golden = pathlib.Path(__file__).resolve().parent.parent / "scenarios" / "light_cones.json"
if golden.exists():
    print("\nrunning the bundled light-cone scenario:")
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "light_cones_report.json"
        code = run_scenario(str(golden), str(out))
        verdict = json.loads(out.read_text())["pass"]
    print("exit status:", code, "report pass:", verdict)

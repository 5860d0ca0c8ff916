"""The seeded deep walk that the tier-1 files read.

Twenty walks at (2,5), seeds 0-19, each 256 steps from the straight
path.  Each step draws f or e (rng.random() < 0.5), then i from (1, 2),
and applies that operator to both engines.  Each engine moves on from
its own image, or stays put on a null, so its states are exactly those
of a walk that ran that engine alone.  The walk itself asserts nothing.
"""

import random
from functools import cache
from typing import NamedTuple

from lscrystal.cartan import GCM
from lscrystal.explicit import FORM_I, ExplicitPath, e_explicit, f_explicit, to_ls_path
from lscrystal.paths import LSPath, e_generic, f_generic

G25 = GCM(2, 5)
SEEDS = 20
STEPS = 256


class WalkStep(NamedTuple):
    """One step: the two states before it, then both engines' images."""

    seed: int
    step: int
    is_f: bool
    i: int
    ep: ExplicitPath
    pi: LSPath
    closed: ExplicitPath | None
    engine: LSPath | None

    @property
    def ep_after(self) -> ExplicitPath:
        return self.closed or self.ep

    @property
    def pi_after(self) -> LSPath:
        return self.engine or self.pi


def deep_walk_steps():
    """Every step of the walks, computed afresh: a test that patches a
    module the engines call iterates this, not the cached deep_walk."""
    for seed in range(SEEDS):
        rng = random.Random(seed)
        ep = ExplicitPath(FORM_I, 0, 1, (0, 1))
        pi = to_ls_path(ep)
        for step in range(STEPS):
            is_f, i = rng.random() < 0.5, rng.choice((1, 2))
            closed = (f_explicit if is_f else e_explicit)(ep, i, G25)
            engine = (f_generic if is_f else e_generic)(pi, i, G25)
            walk_step = WalkStep(seed, step, is_f, i, ep, pi, closed, engine)
            yield walk_step
            ep, pi = walk_step.ep_after, walk_step.pi_after


@cache
def deep_walk() -> tuple[WalkStep, ...]:
    """The steps of deep_walk_steps, built once per test session."""
    return tuple(deep_walk_steps())

"""Seeded scenario generators for the benchmark workloads.

Every generator takes the imported ``carrieralloc`` package and the seed,
and builds its scenario only from the package's public model types, so the
program under test sees nothing but the generated input. The same seed
always gives the same scenario.

A pass is timed on one seed's scenario, while the benchmark's bounds are
checked across seeds, so the cost of a pass must not depend on the seed.
Two things set that cost: how many users each carrier covers, and how
loaded it is, which fixes how many dual-ascent iterations its solves take.
Both are therefore laid out by a fixed design, not drawn at random: the
carriers sit on a ring, every carrier is home to the same mix of users, a
user covers its home carrier and the next ones along the ring, and each
carrier's capacity is its user count times a load factor taken in turn from
a fixed cycle. The seed draws the utilities (from the families and
parameter ranges of the paper's section-5 preset), the user ids and the
rotation of the load cycle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

SECTION5_ARGV = ["sweep", "--preset", "section5", "--sweep", "1=50:200:1"]


@dataclass(frozen=True)
class RingDesign:
    """Layout of a synthetic scenario.

    coverage_mix[k] users per home carrier cover k + 1 consecutive
    carriers. loads is the cycle of capacity-per-covered-user factors.
    """

    n_carriers: int
    coverage_mix: tuple[int, ...]
    loads: tuple[float, ...]


# Capacity per covered user: at 2 a carrier is over-loaded and the clamp,
# not the residual, ends its solves (86 iterations with the default
# parameters), offsets or not; at 40 the bids settle in about 25 iterations.
OVERLOADED = 2.0
LIGHT = 40.0

# Few carriers with many users each, half of them over-loaded: the solves
# dominate and the protocol bookkeeping is negligible.
WIDE = RingDesign(n_carriers=4, coverage_mix=(50, 50), loads=(OVERLOADED, LIGHT))
# Many small carriers; 70% of the users cover two or three of them and so
# carry offsets into their later solves.
MANY = RingDesign(n_carriers=60, coverage_mix=(3, 4, 3), loads=(LIGHT,))


def _utility(ca, rng: random.Random):
    if rng.random() < 0.5:
        return ca.Sigmoidal(a=rng.uniform(1.0, 5.0), b=rng.uniform(10.0, 30.0))
    return ca.Logarithmic(k=rng.uniform(0.5, 15.0), r_max=100.0)


def ring_scenario(ca, design: RingDesign, seed: int, salt: str):
    """Scenario laid out by ``design``, with the seed's utilities and ids."""
    rng = random.Random(f"{salt}/{seed}")
    n = design.n_carriers
    coverages = [
        tuple((home + j) % n + 1 for j in range(k + 1))
        for home in range(n)
        for k, count in enumerate(design.coverage_mix)
        for _ in range(count)
    ]
    ids = list(range(1, len(coverages) + 1))
    rng.shuffle(ids)
    users = tuple(
        ca.UserSpec(id=uid, utility=_utility(ca, rng), coverage=cov)
        for uid, cov in zip(ids, coverages)
    )
    covered = [0] * n
    for cov in coverages:
        for cid in cov:
            covered[cid - 1] += 1
    rotation = rng.randrange(len(design.loads))
    carriers = tuple(
        ca.CarrierSpec(
            id=i + 1,
            capacity=covered[i] * design.loads[(i + rotation) % len(design.loads)],
        )
        for i in range(n)
    )
    return ca.Scenario(carriers=carriers, users=users)


class Section5Sweep:
    """The paper's own experiment: the CLI sweeps carrier 1 from 50 to 200.

    151 points, each two carriers of six users solved twice. Carrier 2 is
    the same at every point, so a solve cache would show here and nowhere
    else. The scenario is the built-in preset; the seed does not change it.
    """

    name = "section5-sweep"
    expected_runs = 151

    def setup(self, pkg, seed: int, workdir: Path) -> None:
        self.out = workdir / "out"
        self.argv = SECTION5_ARGV + ["--out", str(self.out)]

    def call(self, pkg):
        return pkg.cli.main(self.argv)


class WideCarriers:
    """``protocol.run`` in-process on 4 carriers of 150 users each.

    Half the carriers are over-loaded. Solving is nearly all of the pass,
    so this isolates the kernel and the carrier solve.
    """

    name = "wide-carriers"
    expected_runs = 1
    out = None

    def setup(self, pkg, seed: int, workdir: Path) -> None:
        self.scenario = ring_scenario(pkg, WIDE, seed, self.name)

    def call(self, pkg):
        pkg.protocol.run(self.scenario)
        return None


class ManyCarriers:
    """The CLI ``run --scenario`` on a JSON file of 60 carriers and 600 users.

    Most users carry offsets, the protocol's linear scans grow with the
    user count, and the CLI writes a trace CSV per carrier and phase: the
    one workload where the protocol, model and CLI layers carry weight.
    """

    name = "many-carriers"
    expected_runs = 1

    def setup(self, pkg, seed: int, workdir: Path) -> None:
        scenario = ring_scenario(pkg, MANY, seed, self.name)
        path = workdir / "scenario.json"
        path.write_text(pkg.serialize_scenario(scenario))
        self.out = workdir / "out"
        self.argv = ["run", "--scenario", str(path), "--out", str(self.out)]

    def call(self, pkg):
        return pkg.cli.main(self.argv)


WORKLOADS = {w.name: w for w in (Section5Sweep, WideCarriers, ManyCarriers)}

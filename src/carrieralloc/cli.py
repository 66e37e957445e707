"""Command-line front end: single allocations and capacity sweeps to CSV.

Exit codes: 0 success, 2 usage (argparse), 3 scenario/input errors,
4 solver non-convergence or another protocol error, 5 output I/O errors.
All CSV output is deterministic: rerunning the same command produces
identical bytes.

Exact repeats of a carrier solve are reused, not solved again, and no
output changes: in ``run`` and at each sweep point an allocation whose
offsets are all zero reuses its discovery solve, and a ``sweep`` point
reuses the previous point's solves wherever their inputs are equal, such
as the discovery of every carrier it does not sweep.

The ``--out`` directory is created after every input check and before the
first solve: an input error creates nothing, and a directory that cannot
be made fails at once rather than after the solving. A ``run`` that then
fails to converge (exit 4) leaves the directory in place, empty unless an
earlier report is in it; a failed ``sweep`` point still writes its row.

Every CSV is in the excel dialect of the ``csv`` module: ints written with
``str``, floats with ``repr``, and rows ended by ``\r\n``. Every file is
formatted directly rather than through ``csv.writer``, with the same bytes
as ``csv.writer`` would write. Ints and floats are cells that dialect
never quotes; the one text cell, a failed sweep point's status, which
holds the error's text, is quoted as the dialect quotes it (see
``_csv_cell``). A cell that repeats, such as a trace step's price or a
sweep point's capacity, is formatted once. Where an allocation reused its
discovery solve, both trace files hold the one trace, formatted once.

``main`` builds its argument parser once per process and reuses it, since
parsing leaves the parser as it was: building it takes about eight times
as long as a parse.

Each report file is rendered whole and rewritten in place, with one write:
an existing file is overwritten and then cut to the new length rather
than truncated first, which on some file systems costs more than the
write itself. Every byte of every file is written on every run. As
before, a run that dies mid-write leaves a file that is neither the old
report nor the new one.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from . import model, protocol
from .enodeb import ConvergenceTrace
from .errors import ProtocolError, ScenarioError

# Named, not __name__, so that ``python -m carrieralloc.cli`` logs under the
# package logger too, whose level ``main`` sets.
log = logging.getLogger("carrieralloc.cli")

EXIT_OK = 0
EXIT_INPUT = 3
EXIT_SOLVER = 4
EXIT_IO = 5

PRESETS = {
    "section5": model.two_carrier_nine_user,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="carrieralloc",
        description=(
            "Price-selective multi-carrier rate allocation: per-carrier "
            "price discovery followed by price-ordered allocation with "
            "carrier aggregation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    src = common.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenario", metavar="PATH", help="scenario JSON file")
    src.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="built-in scenario (two carriers, nine users)",
    )
    common.add_argument(
        "--set-capacity",
        metavar="ID=VALUE",
        action="append",
        default=[],
        help="override a carrier capacity; repeatable",
    )
    common.add_argument("--out", metavar="DIR", default="out", help="output directory")
    common.add_argument("--max-iters", type=int, default=None,
                        help="cap on the price probes of each carrier solve")
    common.add_argument("-v", "--verbose", action="count", default=0,
                        help="log progress to stderr (-vv for debug)")

    p_run = sub.add_parser("run", parents=[common],
                           help="single allocation, full report CSVs")
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="rerun over a capacity range of one carrier")
    p_sweep.add_argument(
        "--sweep", metavar="ID=START:STOP:STEP", required=True,
        help="carrier id and inclusive capacity range",
    )
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _solver_params(args) -> model.SolverParams:
    if args.max_iters is None:
        return model.SolverParams()
    return model.SolverParams(max_outer_iters=args.max_iters)


def _load_scenario(args) -> model.Scenario:
    if args.preset is not None:
        scenario = PRESETS[args.preset]()
    else:
        scenario = model.load_scenario(args.scenario)
    for spec in args.set_capacity:
        try:
            cid_text, value_text = spec.split("=", 1)
            cid = int(cid_text)
            value = float(value_text)
        except ValueError:
            raise ScenarioError(
                f"--set-capacity expects ID=VALUE, got {spec!r}"
            ) from None
        scenario = model.with_capacity(scenario, cid, value)
    return scenario


class _SweepPoints(Sequence):
    """The capacities START + i * STEP for i in range(count), formed on demand.

    A sweep runs its first point without first building a list of them all.
    """

    def __init__(self, start: float, step: float, count: int):
        self._start, self._step, self._indices = start, step, range(count)

    def __len__(self) -> int:
        return len(self._indices)

    def __getitem__(self, i: int) -> float:
        return self._start + self._indices[i] * self._step


def _parse_sweep_spec(spec: str) -> tuple[int, _SweepPoints]:
    try:
        cid_text, range_text = spec.split("=", 1)
        start_text, stop_text, step_text = range_text.split(":")
        cid = int(cid_text)
        start, stop, step = float(start_text), float(stop_text), float(step_text)
    except ValueError:
        raise ScenarioError(
            f"--sweep expects ID=START:STOP:STEP, got {spec!r}"
        ) from None
    for field, value in (("START", start), ("STOP", stop), ("STEP", step)):
        if not math.isfinite(value):
            raise ScenarioError(f"sweep {field} must be finite, got {value}")
    if step <= 0:
        raise ScenarioError(f"sweep step must be > 0, got {step}")
    if start > stop:
        raise ScenarioError(f"sweep start {start} must not exceed stop {stop}")
    span = (stop - start) / step
    if not math.isfinite(span):
        raise ScenarioError(
            f"sweep from {start} to {stop} in steps of {step} has too many points"
        )
    # STOP is inclusive. The fields round to floats, and so does the span,
    # which can then fall short of a whole number of steps by a few ulps of
    # (|START| + |STOP|) / STEP: a slack relative to that, not a fixed one,
    # which a span past ~10^7 steps would absorb. At most half a step, which
    # only a STEP within a few ulps of the fields reaches.
    slack = 1e-9 + 4.0 * sys.float_info.epsilon * (abs(start) + abs(stop)) / step
    return cid, _SweepPoints(start, step, int(span + (slack if slack < 0.5 else 0.5)) + 1)


def _write_file(path: Path, data: bytes) -> None:
    """Make ``data`` the whole content of ``path``, overwriting it in place."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _csv_cell(text: str) -> str:
    """``text`` as a cell of ``csv.writer``'s excel dialect: quoted, with each
    quote doubled, when it holds a comma, a quote, ``\r`` or ``\n``."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_lines(path: Path, lines: list[str]) -> bytes:
    """Write, and return, the formatted rows ``lines`` as one file."""
    data = "".join(lines).encode()
    _write_file(path, data)
    return data


def _write_trace_csv(path: Path, trace: ConvergenceTrace) -> bytes:
    """One trace as rows (iteration, price, user_id, w = price * r, r).

    Writes, and returns, the bytes ``csv.writer`` would write, formatting
    each price and each user id once.
    """
    uid_cells = [f"{uid}," for uid in trace.user_ids]
    rows = ["iteration,price,user_id,w,r\r\n"]
    for step in trace.steps:
        p = step.price
        prefix = f"{step.iteration},{p!r},"
        rows += [f"{prefix}{uid}{p * r!r},{r!r}\r\n"
                 for uid, r in zip(uid_cells, step.rates)]
    return _write_lines(path, rows)


def _write_report_files(out: Path, scenario: model.Scenario,
                        report: protocol.AllocationReport) -> None:
    """The report's CSVs, each in the bytes ``csv.writer`` would write."""
    carrier_ids = sorted(scenario.carrier_ids())
    users = sorted(scenario.users, key=lambda u: u.id)
    rates, offsets, aggregates = report.rates, report.offsets, report.aggregates

    lines = ["user_id,carrier_id,rate,offset_used\r\n"]
    for u in users:
        uid = u.id
        lines += [f"{uid},{cid},{rates[cid][uid]!r},{offsets[cid][uid]!r}\r\n"
                  for cid in sorted(u.coverage)]
    _write_lines(out / "allocations.csv", lines)
    _write_lines(out / "aggregates.csv", ["user_id,r_agg\r\n"] + [
        f"{u.id},{aggregates[u.id]!r}\r\n" for u in users
    ])
    _write_lines(out / "prices.csv", ["carrier_id,offered_price,allocation_price\r\n"] + [
        f"{cid},{report.offered_prices[cid]!r},{report.allocation_prices[cid]!r}\r\n"
        for cid in carrier_ids
    ])
    for cid in carrier_ids:
        offered = report.offered_traces[cid]
        data = _write_trace_csv(out / f"trace_{cid}_offered.csv", offered)
        allocation_path = out / f"trace_{cid}_allocation.csv"
        if report.allocation_traces[cid] is offered:
            _write_file(allocation_path, data)
        else:
            _write_trace_csv(allocation_path, report.allocation_traces[cid])


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    params = _solver_params(args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    report = protocol.run(scenario, params)
    _write_report_files(out, scenario, report)
    log.info("wrote report CSVs to %s", out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    params = _solver_params(args)
    sweep_cid, capacities = _parse_sweep_spec(args.sweep)
    if sweep_cid not in scenario.carrier_ids():
        raise ScenarioError(f"no carrier with id {sweep_cid}")
    carrier_ids = sorted(scenario.carrier_ids())
    # every point has the scenario's users: with_capacity keeps them
    user_ids = sorted(scenario.user_ids())
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    price_lines = [",".join(["R_value"] + [f"p{cid}_offered" for cid in carrier_ids]
                            + ["status\r\n"])]
    # a failed point's empty price cells, with the commas around them
    no_prices = "," * (len(carrier_ids) + 1)
    # each user id's cell, with the commas around it, formatted once
    uid_cells = [(uid, f",{uid},") for uid in user_ids]
    aggregate_lines = ["R_value,user_id,r_agg\r\n"]
    failures = 0
    with protocol._reuse_between_points():
        for cap in capacities:
            point = model.with_capacity(scenario, sweep_cid, cap)
            cap_cell = repr(cap)
            try:
                report = protocol.run(point, params)
            except ProtocolError as e:
                failures += 1
                log.warning("sweep point %g failed: %s", cap, e)
                price_lines.append(f"{cap_cell}{no_prices}{_csv_cell(str(e))}\r\n")
                continue
            offered = report.offered_prices
            price_lines.append(",".join([cap_cell] + [repr(offered[cid]) for cid in carrier_ids]
                                        + ["ok\r\n"]))
            aggregates = report.aggregates
            aggregate_lines += [f"{cap_cell}{cell}{aggregates[uid]!r}\r\n"
                                for uid, cell in uid_cells]

    _write_lines(out / "sweep_prices.csv", price_lines)
    _write_lines(out / "sweep_aggregates.csv", aggregate_lines)
    log.info("wrote sweep CSVs to %s", out)
    if failures:
        print(f"{failures} of {len(price_lines) - 1} sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    level = logging.WARNING
    if args.verbose == 1:
        level = logging.INFO
    elif args.verbose >= 2:
        level = logging.DEBUG
    # basicConfig installs the stderr handler only when the root logger has
    # none, so the level is set on the package's logger on every call.
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("carrieralloc").setLevel(level)
    try:
        return args.func(args)
    except (ScenarioError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ProtocolError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

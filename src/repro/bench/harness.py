"""The study harness shared by ``python -m repro.bench`` and ``bench regress``.

Every study exports one :class:`Study` record; the CLI builds one
subcommand per record and ``bench regress`` reads the same ``identity``
checks off the committed artifacts.  Also here: the provenance stamp and
the one writer of every ``BENCH_*.json``, the one best-of timer, and the
typed argparse validators that reject bad CLI values before any work.
"""

from __future__ import annotations

import argparse
import json
import math
import time
from dataclasses import dataclass
from typing import Any, Callable, TextIO

from repro.errors import BenchError

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "GENERATED_BY",
    "Study",
    "best_of",
    "fault_rates",
    "pool_sizes",
    "positive_float",
    "positive_int",
    "stamp_bench_doc",
    "write_bench_doc",
]

# Every BENCH_*.json artifact is stamped so `bench regress` can reject
# stale or foreign baselines before comparing numbers against them.
BENCH_SCHEMA_VERSION = 1


def _generated_by() -> str:
    from repro import __version__

    return f"repro.bench/{__version__}"


GENERATED_BY = _generated_by()


def stamp_bench_doc(doc: dict) -> dict:
    """Add the baseline provenance fields to one BENCH document (in place).

    Idempotent, and key-insertion only — stamping never reorders or
    rewrites measurement fields (the files are dumped with
    ``sort_keys=True`` anyway).
    """
    doc["schema_version"] = BENCH_SCHEMA_VERSION
    doc["generated_by"] = GENERATED_BY
    return doc


def write_bench_doc(doc: dict, stream: TextIO) -> None:
    """Write a study document to ``stream`` as stable, diff-friendly JSON."""
    json.dump(doc, stream, indent=1, sort_keys=True, default=str)
    stream.write("\n")


@dataclass(frozen=True)
class Study:
    """One benchmark study as the CLI and the regression gate see it.

    ``arguments`` adds the study's own flags to its subparser (the shared
    ``--json``/``--out`` come from the CLI's parent parser); ``run`` turns
    the parsed flags into a JSON-ready document and ``render`` into text.
    ``identity`` lists the named result-identity checks a document must
    pass; ``gates`` returns one failure message per violated
    ``--assert-*`` threshold.
    """

    name: str
    help: str
    arguments: Callable[[argparse.ArgumentParser], None]
    run: Callable[[argparse.Namespace], dict]
    render: Callable[[dict], str]
    identity: Callable[[dict], list[tuple[str, bool]]] = lambda doc: []
    gates: Callable[[argparse.Namespace, dict], list[str]] = lambda args, doc: []


def best_of(fn: Callable[[], Any], repeat: int) -> tuple[float, Any]:
    """Call ``fn`` ``repeat`` times; return (fastest wall seconds, last result)."""
    if repeat < 1:
        raise BenchError(f"repeat must be >= 1, got {repeat}")
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


# -- argparse validators -------------------------------------------------------


def _number(text: str, kind: type = float):
    try:
        return kind(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {kind.__name__} value: {text!r}") from None


def positive_int(text: str) -> int:
    value = _number(text, int)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def positive_float(text: str) -> float:
    value = _number(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _probability(text: str) -> float:
    value = _number(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1], got {text}")
    return value


def _comma_list(parse: Callable[[str], Any], example: str) -> Callable[[str], tuple]:
    """A validator for a non-empty comma-separated list of ``parse`` values."""

    def parse_list(text: str) -> tuple:
        values = tuple(parse(part) for part in text.split(",") if part.strip())
        if not values:
            raise argparse.ArgumentTypeError(f"expected a list like {example}, got {text!r}")
        return values

    return parse_list


pool_sizes = _comma_list(positive_int, "2,4")
fault_rates = _comma_list(_probability, "0.1,0.3")

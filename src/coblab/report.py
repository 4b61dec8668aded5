"""Certificates and the directed decimal rendering every report shares.

A certificate is a chain of certified interval comparisons with an overall
verdict. Reports print enclosures as decimals rounded outward (lower
endpoints down, upper endpoints up), so a printed interval still contains
the value it stands for.
"""

from __future__ import annotations

from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from typing import Iterable, Optional

from .certify import Enclosure, Frozen
from .errors import CertificationError

CERTIFICATE_KINDS = (
    "joint-upper-bound",
    "double-lower-bound",
    "membership",
    "divergence-witness",
)


# ---------------------------------------------------------------------------
# directed decimals


def decimal_str(value: Fraction, direction: str, digits: int = 30) -> str:
    """Directed decimal rendering so printed endpoints stay certified."""
    rounding = ROUND_FLOOR if direction == "down" else ROUND_CEILING
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = rounding
        d = Decimal(int(value.numerator)) / Decimal(int(value.denominator))
    return format(d, "f")


def endpoints(enc: Enclosure, digits: int = 30) -> tuple[str, str]:
    """The endpoints of enc as decimals: lo rounded down, hi rounded up."""
    return decimal_str(enc.lo, "down", digits), decimal_str(enc.hi, "up", digits)


def interval_str(enc: Enclosure, digits: int = 30) -> str:
    return "[{}, {}]".format(*endpoints(enc, digits))


def enclosure_json(enc: Enclosure) -> dict:
    lo, hi = endpoints(enc)
    return {"lo": lo, "hi": hi}


def write_rows(fileobj, header: list, rows: Iterable) -> None:
    """One CSV header row, then the rows."""
    import csv  # here, so a JSON or text report never loads it

    writer = csv.writer(fileobj)
    writer.writerow(header)
    writer.writerows(rows)


# ---------------------------------------------------------------------------
# certificates


class CertificateEntry(Frozen):
    """One certified comparison: value <op> threshold, or an annotation.

    Comparisons hold only when the whole value interval sits on the required
    side of the whole threshold interval. "info" and "assumption" entries
    carry no comparison and never fail; "assumption" additionally marks
    evidence that is finite-depth rather than analytic.
    """

    __slots__ = ("description", "value", "comparison", "threshold")

    def __init__(
        self,
        description: str,
        value: Enclosure,
        comparison: str = "info",
        threshold: Optional[Enclosure] = None,
    ):
        if comparison not in ("<=", "<", ">=", ">", "info", "assumption"):
            raise ValueError(f"unknown comparison {comparison!r}")
        if comparison in ("info", "assumption"):
            if threshold is not None:
                raise ValueError("annotations take no threshold")
        elif threshold is None:
            raise ValueError(f"comparison {comparison!r} needs a threshold")
        object.__setattr__(self, "description", description)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "comparison", comparison)
        object.__setattr__(self, "threshold", threshold)

    @property
    def satisfied(self) -> bool:
        if self.comparison in ("info", "assumption"):
            return True
        if self.comparison == "<=":
            return self.value.hi <= self.threshold.lo
        if self.comparison == "<":
            return self.value.hi < self.threshold.lo
        if self.comparison == ">=":
            return self.value.lo >= self.threshold.hi
        return self.value.lo > self.threshold.hi

    def render(self) -> str:
        value = interval_str(self.value)
        if self.comparison in ("info", "assumption"):
            tag = "noted" if self.comparison == "assumption" else "value"
            return f"{self.description}: {value} ({tag})"
        state = "ok" if self.satisfied else "FAILED"
        return (
            f"{self.description}: {value} "
            f"{self.comparison} {interval_str(self.threshold)} ... {state}"
        )

    def to_json_dict(self) -> dict:
        payload = {
            "description": self.description,
            "value": enclosure_json(self.value),
            "comparison": self.comparison,
            "satisfied": self.satisfied,
        }
        if self.threshold is not None:
            payload["threshold"] = enclosure_json(self.threshold)
        return payload


class Certificate(Frozen):
    """A named chain of certified comparisons with an overall verdict."""

    __slots__ = ("kind", "entries")

    def __init__(self, kind: str, entries: tuple[CertificateEntry, ...]):
        if kind not in CERTIFICATE_KINDS:
            raise ValueError(f"unknown certificate kind {kind!r}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", entries)

    @property
    def verdict(self) -> bool:
        return all(entry.satisfied for entry in self.entries)

    def render(self) -> str:
        head = f"[{self.kind}] verdict: {'PASS' if self.verdict else 'FAIL'}"
        return "\n".join([head] + ["  " + e.render() for e in self.entries])

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "verdict": self.verdict,
            "entries": [e.to_json_dict() for e in self.entries],
        }


def require(cert: Certificate, context: str) -> Certificate:
    """Guaranteed inequalities must certify; a failure is a precision bug."""
    if not cert.verdict:
        raise CertificationError(
            f"{context}: a mathematically guaranteed comparison failed\n"
            + cert.render()
        )
    return cert

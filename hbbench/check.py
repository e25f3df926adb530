"""Correctness check of workload outputs against a stored reference.

Two kinds of cell, as recorded by ``make_reference.py``:

* RNG-free cells (every ``b0`` row, the ``fd``/``oma`` rows, the fig5 ``b0``
  sum rates) do not depend on the seed. Every output must match them to
  1e-12 relative, magnitudes below 1 counting as 1.
* Random cells are pooled over all outputs of a run and compared with the
  reference mean. For each value the reference holds the mean, the per-draw
  standard deviation and the largest deviation from the mean seen over
  independent draws. The values are bounded and some are mixtures with a
  rare branch (a user that now and then decodes later), so a normal
  approximation understates the tails; the tolerance is Bernstein's bound
  instead, applied to the run's pooled mean and to the reference mean, with
  the failure chance split so that a false alarm anywhere in the table has
  probability at most ``FALSE_ALARM``. A new random stream with the same
  distribution passes; a wrong formula does not.

The Theorem 3 gap bound exists only on draws where it applies (a user
decoded second or later, with a finite bound). Its reference statistics
are taken over those draws alone, with their own count, and a run pools
only the draws where it is present; see ``TableCheck.add`` for the table.
"""

from __future__ import annotations

import csv
import io
import math

EXACT_RTOL = 1e-12
FALSE_ALARM = 1e-3
RANGE_MARGIN = 1.5  # widens the largest deviation seen in the reference draws
# table columns left empty where they do not apply, and the cell field
# present only where its mask is set
OPTIONAL_COLUMNS = ("gap_ub_thm3",)
CELL_MASKS = {"gap_ub_thm3": "gap_ub_applicable"}


def exact_match(value: str, ref: str) -> bool:
    """Cell text against reference text: numbers to EXACT_RTOL, the rest verbatim."""
    if value == ref:
        return True
    try:
        x, r = float(value), float(ref)
    except ValueError:
        return False
    return abs(x - r) <= EXACT_RTOL * max(abs(r), 1.0)


def bernstein(n: int, sd: float, spread: float, log_term: float) -> float:
    """Half-width t with P(|mean of n draws - mu| >= t) <= 2 exp(-log_term).

    From Bernstein's inequality for draws with standard deviation ``sd`` and
    |x - mu| <= ``spread``: P(|mean - mu| >= t) <= 2 exp(-n t^2 / (2 sd^2 + 2 spread t / 3)).
    """
    a = spread * log_term / 3.0
    return (a + math.sqrt(a * a + 2.0 * n * sd * sd * log_term)) / n


class _Pool:
    """Running sums of the random cells: key -> column -> (weighted sum, weight)."""

    def __init__(self, stats: dict):
        # key -> column -> [mean, sd, largest |x - mean|, reference draws], or
        # None where the reference saw too few draws to test the value
        self.stats = {
            key: {col: st for col, st in cols.items() if st is not None}
            for key, cols in stats.items()
        }
        self.sums = {key: {col: [0.0, 0] for col in cols} for key, cols in self.stats.items()}

    def has(self, key: str, col: str) -> bool:
        return col in self.stats[key]

    def complete(self, key: str, col: str, n_ref: int) -> bool:
        """Whether the reference saw the value on every one of its n_ref draws."""
        return self.stats[key][col][3] == n_ref

    def add(self, key: str, col: str, mean: float, weight: int) -> None:
        cell = self.sums[key][col]
        cell[0] += mean * weight
        cell[1] += weight

    def problems(self) -> list[str]:
        tests = sum(len(cols) for cols in self.stats.values())
        # two bounds per test (run mean, reference mean) share the false-alarm budget
        log_term = math.log(2.0 * 2 * tests / FALSE_ALARM)
        out = []
        for key, cols in self.stats.items():
            for col, (mean, sd, spread, n_ref) in cols.items():
                total, n = self.sums[key][col]
                if n == 0:
                    continue
                got = total / n
                spread *= RANGE_MARGIN
                tol = bernstein(n, sd, spread, log_term)
                tol += bernstein(n_ref, sd, spread, log_term)
                tol += EXACT_RTOL * max(abs(mean), 1.0)
                if not abs(got - mean) <= tol:
                    out.append(
                        f"{key} {col}: pooled mean {got:.6g} over {n} draws, "
                        f"reference {mean:.6g} +- {tol:.3g}"
                    )
        return out

    def tested(self) -> int:
        return sum(1 for cols in self.sums.values() for _, n in cols.values() if n > 0)


def parse_table(text: str, key_columns: list[str]) -> tuple[list[str], dict[str, dict]]:
    """CSV text -> (header, {key: {column: text}}), key joined with '|'."""
    reader = csv.DictReader(io.StringIO(text))
    rows = {}
    for row in reader:
        key = "|".join(row[c] for c in key_columns)
        if key in rows:
            raise ValueError(f"duplicate row {key}")
        rows[key] = row
    return list(reader.fieldnames or []), rows


class TableCheck:
    """Check each CSV table a run writes and pool its random cells.

    ``ref`` is the ``table`` section of a workload reference.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.key_columns = ref["key_columns"]
        self.exact = ref["exact"]
        stat_columns = ref["stat_columns"]
        self.random = {
            key: dict(zip(stat_columns, stats)) for key, stats in ref["random"].items()
        }
        self.pool = _Pool(self.random)
        self.n_ref = ref["n_ref"]
        self.weight_column = ref["weight_column"]

    def add(self, text: str, trials: int, pool: bool = True) -> list[str]:
        """Problems found in one table (empty when it passes); pools its random cells.

        A row's value is its mean over the row's trials and is pooled with
        that many trials as its weight. A value the program leaves empty
        when it does not apply (the Theorem 3 bound) is the mean over the
        trials where it applied, a count the table does not give. Such a
        mean is still unbiased, and its variance is at most one draw's, so
        it is pooled with the row's weight where the reference saw the value
        on every draw (it then applies on every trial of the row, but for
        rare exceptions), and with weight 1 otherwise, which only widens
        the tolerance.
        """
        try:
            header, rows = parse_table(text, self.key_columns)
        except (ValueError, KeyError, csv.Error) as exc:
            return [f"unreadable table: {exc}"]
        if header != self.ref["header"]:
            return [f"header {header} differs from {self.ref['header']}"]
        expected = set(self.exact) | set(self.random)
        if set(rows) != expected:
            missing = sorted(expected - set(rows))[:3]
            extra = sorted(set(rows) - expected)[:3]
            return [f"row set differs: missing {missing}, unexpected {extra}"]
        problems = []
        for key, ref_values in self.exact.items():
            row = rows[key]
            for col, ref_value in zip(self.ref["exact_columns"], ref_values):
                if not exact_match(row[col], ref_value):
                    problems.append(f"{key} {col}: {row[col]} != reference {ref_value}")
        for key, cols in self.random.items():
            row = rows[key]
            weight = trials
            if self.weight_column is not None:
                weight = int(row[self.weight_column])
                if not 1 <= weight <= trials:
                    problems.append(f"{key}: {weight} trials outside 1..{trials}")
                    continue
            for col in cols:
                if not self.pool.has(key, col):
                    continue
                if row[col] == "" and col in OPTIONAL_COLUMNS:
                    continue
                try:
                    value = float(row[col])
                except ValueError:
                    problems.append(f"{key} {col}: not a number: {row[col]!r}")
                    continue
                if not math.isfinite(value):
                    problems.append(f"{key} {col}: not finite: {value}")
                    continue
                if pool:
                    full = col not in OPTIONAL_COLUMNS or self.pool.complete(key, col, self.n_ref)
                    self.pool.add(key, col, value, weight if full else 1)
        return problems

    def finish(self) -> list[str]:
        return self.pool.problems()


class CellCheck:
    """Check the per-user outputs of ``trial_metrics`` calls on one layout.

    ``ref`` is the ``cell`` section of a workload reference: the cluster and
    user labels, and per field the per-user mean, per-draw sd, largest
    deviation and number of reference draws. A field with a mask in
    ``CELL_MASKS`` is checked and pooled only on the draws where the mask is
    set.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.fields = list(ref["fields"])
        stats = {
            f"U{c},{u}": {f: ref["fields"][f][i] for f in self.fields}
            for i, (c, u) in enumerate(ref["users"])
        }
        self.keys = list(stats)
        self.pool = _Pool(stats)

    def add(self, tm, pool: bool = True) -> list[str]:
        labels = [[int(c), int(u)] for c, u in zip(tm.cluster, tm.user)]
        if labels != self.ref["users"]:
            return ["user labels differ from the reference"]
        problems = []
        for field in self.fields:
            values = getattr(tm, field)
            mask = getattr(tm, CELL_MASKS[field]) if field in CELL_MASKS else [True] * len(values)
            for key, value, present in zip(self.keys, values, mask):
                if not present:
                    continue
                value = float(value)
                if not math.isfinite(value):
                    problems.append(f"{key} {field}: not finite: {value}")
                    continue
                if pool and self.pool.has(key, field):
                    self.pool.add(key, field, value, 1)
        return problems

    def finish(self) -> list[str]:
        return self.pool.problems()

#!/usr/bin/env python3
"""Check two source trees of hbnoma against each other on mutated JSON configs.

    python3 scripts/config_diff.py OLD_SRC NEW_SRC [N]

OLD_SRC and NEW_SRC are directories holding an `hbnoma` package, loaded side
by side as `scripts/ab_time.py` loads them. Each of N configs (default 1000)
is a valid base config with one mutation: a key or array entry deleted, a key
or entry added, or a value set to one such as null, true, 8.0, "", [],
2**64 or 1e300. Each tree puts it through `config_to_spec` and then
`validate_spec`, as `hbnoma validate` does. The trees agree on a config when
both accept it with equal specs (compared as their `spec_to_config` forms),
or both reject it with a ConfigError naming the same field. The base
configs hold every field of the format that OLD_SRC knows: a field only
NEW_SRC has is left at its default, and its key in NEW_SRC's spec does not
count as a difference. The script prints both counts and every
disagreement, and exits 1 if there is one.

No config is drawn whose `cluster_size` sweep holds a value above
MAX_CLUSTER_SIZE: a tree without a size budget builds a gain tuple that
large, and a value such as 2**64 exhausts memory.
"""

import copy
import math
import random
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ab_time import _load  # noqa: E402

MAX_CLUSTER_SIZE = 64
TAGS = ("old", "new")
VALUES = (
    None, True, False, 0, 1, -1, 8, 8.0, 0.5, "", "x", "cluster_size", "n_bs", [], [1.0], {},
    2**64, -(2**64), 1e300, -1e300, math.nan, math.inf,
)
_CLUSTERS = [{"aod_deg": -30.0, "gains_db": [0.0, -3.0]}, {"aod_deg": 30.0, "gains_db": [0.0]}]
_SCENARIO = {"clusters": _CLUSTERS, "n_bs": 32, "n_ue": 8, "misalign_deg": 2.0, "snr_db": 10.0}
_BASELINES = {"hb_lb": True, "hb_gap": True, "fd": True, "oma": False, "model_channels": False}
# every key of the format, so that deleting one falls back to its default
_BASE = {"scenario_id": "diff", "scenario": _SCENARIO, "trials": 4, "seed": 3,
         "baselines": _BASELINES}
BASES = (
    {**_BASE, "sweep": {"name": "snr_db", "values": [0.0, 10.0]}, "observe_cluster": None,
     "misalign_grid": [0.0, 2.5]},
    {**_BASE, "sweep": {"name": "cluster_size", "values": [1, 3]}, "observe_cluster": 1,
     "misalign_grid": None},
)


def _paths(node, path=()):
    """Every path (a tuple of keys and indices) into node, node's own first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _config(rng: random.Random, bases) -> tuple[dict, str]:
    """One of bases with one random mutation that no tree allocates for, and its description."""
    while True:
        doc = copy.deepcopy(rng.choice(bases))
        change = _mutate(doc, rng)
        if not _allocates(doc):
            return doc, change


def _mutate(doc, rng: random.Random) -> str:
    """Apply one random mutation to doc in place; its description."""
    paths = list(_paths(doc))
    op = rng.choice(("delete", "add", "set"))
    if op == "add":
        path = rng.choice([p for p in paths if isinstance(_at(doc, p), (dict, list))])
        target, value = _at(doc, path), rng.choice(VALUES)
        if isinstance(target, dict):
            key = rng.choice(("extra", "noise_var", "n_rf", "hb_exact"))
            target[key] = copy.deepcopy(value)
            return f"add {_name(path + (key,))} = {value!r}"
        target.append(copy.deepcopy(value))
        return f"append {value!r} to {_name(path)}"
    path = rng.choice(paths[1:])
    parent, key = _at(doc, path[:-1]), path[-1]
    if op == "delete":
        del parent[key]
        return f"delete {_name(path)}"
    value = rng.choice(VALUES)
    parent[key] = copy.deepcopy(value)
    return f"set {_name(path)} = {value!r}"


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _known_to(tree, doc) -> dict:
    """A copy of doc without the fields that tree rejects as unknown."""
    doc = copy.deepcopy(doc)
    while (verdict := _outcome(tree, doc))[2].endswith(": unknown field"):
        *parents, key = re.match(r"config field '([^']*)'", verdict[2])[1].split(".")
        del _at(doc, [int(p) if p.isdigit() else p for p in parents])[key]
    return doc


def _shared(new, old):
    """new, a spec's config form, without the object keys that old's lacks, at any depth."""
    if isinstance(new, dict) and isinstance(old, dict):
        return {key: _shared(value, old[key]) for key, value in new.items() if key in old}
    if isinstance(new, list) and isinstance(old, list) and len(new) == len(old):
        return [_shared(n, o) for n, o in zip(new, old)]
    return new


def _name(path) -> str:
    return ".".join(map(str, path)) or "<root>"


def _allocates(doc) -> bool:
    """Whether doc asks for a cluster_size sweep value above MAX_CLUSTER_SIZE."""
    sweep = doc.get("sweep")
    if not isinstance(sweep, dict) or sweep.get("name") != "cluster_size":
        return False
    values = sweep.get("values")
    return isinstance(values, list) and any(
        type(v) in (int, float) and not v <= MAX_CLUSTER_SIZE for v in values
    )


def _field_named(message: str) -> str:
    """The field a ConfigError message names: its JSON path's last name, else its first word.

    An index is no name, and the path "sweep.values" is the field sweep_values.
    """
    path = re.match(r"config field '([^']*)'", message)
    if path:
        parts = path[1].replace("sweep.", "sweep_").split(".")
        return [p for p in parts if not p.isdigit()][-1]
    return re.match(r"[A-Za-z_]*", message)[0]


def _outcome(tree, doc) -> tuple:
    """(kind, detail, message) of the tree's verdict on doc.

    kind is 'accepted' (detail: the spec's config), 'rejected' (detail: the field the
    ConfigError names) or 'failed' (detail: any other error).
    """
    pkg, cli = tree
    try:
        spec = cli.config_to_spec(copy.deepcopy(doc))
        pkg.montecarlo.validate_spec(spec)
    except pkg.ConfigError as exc:
        return "rejected", _field_named(str(exc)), str(exc)
    except Exception as exc:  # noqa: BLE001 - any other error is a disagreement to print
        return "failed", f"{type(exc).__name__}: {exc}", ""
    return "accepted", cli.spec_to_config(spec), ""


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    count = int(argv[2]) if len(argv) == 3 else 1000
    rng = random.Random(0)
    tally = {"accepted": 0, "rejected": 0}
    disagreements = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            trees = [_load(src, f"hbnoma_{tag}", Path(tmp)) for src, tag in zip(argv, TAGS)]
            bases = [_known_to(trees[0], base) for base in BASES]
            for _ in range(count):
                doc, change = _config(rng, bases)
                old, new = (_outcome(tree, doc) for tree in trees)
                if old[0] == new[0] and old[0] in tally and old[1] == _shared(new[1], old[1]):
                    tally[old[0]] += 1
                else:
                    disagreements.append((change, old, new))
        finally:
            sys.path.remove(tmp)
    print(f"configs: {count}")
    print(f"accepted on both sides with equal specs: {tally['accepted']}")
    print(f"rejected on both sides naming the same field: {tally['rejected']}")
    print(f"disagreements: {len(disagreements)}")
    for change, old, new in disagreements:
        print(f"  {change}")
        for tag, (kind, detail, message) in zip(TAGS, (old, new)):
            print(f"    {tag}: {kind} {message or detail}")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())

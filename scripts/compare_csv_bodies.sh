#!/usr/bin/env bash
# Check that two source trees write the same outputs for one or more
# configs: byte-identical CSV files, stdout and stderr, and the same
# manifests.  Both trees run on this host in one environment, so at one
# BLAS thread count: the bytes are identical only at a fixed count, since
# another count moves some last bits of the matrix products.
#
#   scripts/compare_csv_bodies.sh BASE_SRC HEAD_SRC [CONFIG...]
#
# BASE_SRC and HEAD_SRC are `src/` directories (for example of the target
# branch and of a change); with no CONFIG the script uses
# scripts/compare_csv_bodies.cfg.  Each config says in its header comment
# what it covers.
# Step 1, in bash, runs the commands.  For each config each tree runs the
# five table commands one at a time, then the five as one invocation
# (`tables`, which writes each table into `tables/<command>/`), `verify`,
# `verify --negative-control` and `sweep`.  `sweep` needs a `*_grid` key,
# so a config without one skips it and says `skip CONFIG sweep: no grid`.
# Each command runs from its tree's directory for the config with a
# relative `--out`, so the paths it prints and echoes are the same in both
# trees, and its stdout and stderr are kept beside its outputs.  The
# negative control must exit 2, every other command 0.
# Step 2, in Python, compares the trees file by file.  Every file either
# tree holds must exist in both.  A manifest (a sweep's point manifests
# too) is compared less `wall_clock_seconds` and `config.out`, and its DIFF
# line names the keys whose value moved apart from the keys only one tree
# writes; any other file is compared byte for byte, stdout and stderr with
# the first 20 lines of a unified diff.  In the head tree each
# `tables/<command>/` must then equal its command's single run, its CSV
# and manifest as above and the invocation's stderr that run's stderr, and
# every manifest's `outputs[]` must give the `sha256` and `bytes` of the
# files beside it.  Three lines count the files and manifests compared, the
# combined tables checked and the manifests whose checksums were checked.
# Exits 1 on any FAIL, DIFF or BAD line: a command that exits otherwise
# than expected, a file only one tree (or run) writes, a difference, or a
# checksum that does not match.
set -euo pipefail

# the two `src/` directories, named by side, so that a run reads its own as ${!side}
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
shift 2
[ $# -gt 0 ] || set -- "$(dirname "$0")/compare_csv_bodies.cfg"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# each run: the exit code both trees must give, its label (its `--out` and
# the stem of its stream files), then its commands and flags
runs=("0 spectrum spectrum" "0 dynamics dynamics" "0 density density"
      "0 entanglement entanglement" "0 thermal thermal"
      "0 tables spectrum dynamics density entanglement thermal" "0 verify verify"
      "2 verify-negative-control verify --negative-control" "0 sweep sweep")
status=0
index=0
for given in "$@"; do
  config=$(realpath "$given")
  name=$(basename "$config")
  index=$((index + 1))
  for run in "${runs[@]}"; do
    read -r expect label command <<< "$run"
    if [ "$label" = sweep ] && ! grep -Eq '^[[:space:]]*[a-z_]+_grid[[:space:]]*=' "$config"; then
      echo "skip $name sweep: no grid"
      continue
    fi
    for side in base head; do
      dir="$work/$side/$index-$name"
      mkdir -p "$dir"
      code=0
      # shellcheck disable=SC2086  # command is the command names and flags
      (cd "$dir" && PYTHONPATH="${!side}" python -m dressedcavity.cli $command --config "$config" \
          --out "$label" > "$label.stdout" 2> "$label.stderr") || code=$?
      if [ "$code" -ne "$expect" ]; then
        echo "FAIL $name $label: the $side tree exited $code, expected $expect"
        cat "$dir/$label.stdout" "$dir/$label.stderr"
        status=1
      fi
    done
  done
done
python - "$work/base" "$work/head" <<'EOF' || status=1
import difflib, hashlib, itertools, json, sys
from pathlib import Path


def comparable(manifest):
    """The manifest less what differs between any two runs: the wall clock
    and the output directory."""
    payload = json.loads(manifest.read_text())
    payload.pop("wall_clock_seconds", None)
    payload.get("config", {}).pop("out", None)
    return payload


def check(label, old, new, sides=("base", "head")):
    """Print a FAIL or DIFF line for `label` and return 1 unless the files
    `old` and `new`, written by the `sides`, agree."""
    if not (old.is_file() and new.is_file()):
        print(f"FAIL {label}: only in {sides[new.is_file()]}")
        return 1
    if new.name == "manifest.json":
        one, two = comparable(old), comparable(new)
        moved = sorted(key for key in one.keys() & two.keys() if one[key] != two[key])
        only = [f"only in {side}: {', '.join(sorted(keys))}"
                for side, keys in zip(sides, (one.keys() - two.keys(), two.keys() - one.keys()))
                if keys]
        if moved or only:
            print(f"DIFF {label}: {'; '.join(filter(None, [', '.join(moved), *only]))}")
        return int(bool(moved or only))
    if old.read_bytes() == new.read_bytes():
        return 0
    print(f"DIFF {label}")
    if new.suffix in (".stdout", ".stderr"):
        lines = difflib.unified_diff(old.read_text().splitlines(), new.read_text().splitlines(),
                                     *sides, lineterm="")
        print(*itertools.islice(lines, 20), sep="\n")
    return 1


base, head = (Path(root) for root in sys.argv[1:])
names = sorted({path.relative_to(root) for root in (base, head) for path in root.rglob("*")
                if path.is_file()})
failures = sum(check(name, base / name, head / name) for name in names)
print(f"compared {len(names)} files, {sum(name.name == 'manifest.json' for name in names)} "
      "of them manifests less wall_clock_seconds and config.out")
# <config>/tables/<command>/ of the combined invocation against <config>/<command>/
combined = sorted(head.glob("*/tables/*"))
for tables in combined:
    single = tables.parent.parent / tables.name
    files = sorted({path.name for folder in (single, tables) if folder.is_dir()
                    for path in folder.iterdir()})
    pairs = [(single / file, tables / file) for file in files]
    pairs.append((single.with_name(f"{tables.name}.stderr"), tables.parent.with_suffix(".stderr")))
    failures += sum(check(f"{new.relative_to(head)} vs {old.relative_to(head)}", old, new,
                          ("single", "combined")) for old, new in pairs)
print(f"checked {len(combined)} combined tables against their single runs")
manifests = sorted(head.rglob("manifest.json"))
for manifest in manifests:
    for entry in json.loads(manifest.read_text())["outputs"]:
        path = manifest.parent / entry["file"]
        data = path.read_bytes() if path.is_file() else None
        if data is None or entry["sha256"] != hashlib.sha256(data).hexdigest() \
                or entry["bytes"] != len(data):
            print(f"BAD {manifest.relative_to(head)}: {entry['file']} does not match its "
                  "sha256 and bytes")
            failures += 1
print(f"checked the checksums of {len(manifests)} head manifests")
sys.exit(1 if failures else 0)
EOF
exit $status

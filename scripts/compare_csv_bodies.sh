#!/usr/bin/env bash
# Check that two source trees write byte-identical CSV files, stdout and
# stderr, and the same manifests, for one or more configs.  Both trees run
# on this host with the same environment, so at one BLAS thread count: the
# bytes are identical only at a fixed count, since another count moves some
# last bits of the matrix products.
#
#   scripts/compare_csv_bodies.sh BASE_SRC HEAD_SRC [CONFIG...]
#
# BASE_SRC and HEAD_SRC are `src/` directories (for example of the target
# branch and of a change); with no CONFIG the script uses
# scripts/compare_csv_bodies.cfg, which fits in one block of every kind;
# scripts/compare_csv_bodies_blocks.cfg crosses the amplitude and spectral
# block boundaries; scripts/compare_csv_bodies_si.cfg runs in SI units, so
# every table and sweep point echoes its SI inputs in its `#` lines;
# scripts/compare_csv_bodies_deflation.cfg deflates 28 of its 64 border
# entries, so every table takes diagonalize's deflation path, and sweeps a
# g grid that leaves none, 36 and 62 of the 64 borders live.
# For each config, each table subcommand, `verify`, `verify
# --negative-control` and `sweep` runs once from each tree; every CSV a
# command writes (for `sweep`, `sweep.csv` and each `points/*/dynamics.csv`)
# is compared whole with cmp, its `#` metadata lines included: they echo
# only values derived from the config, so they are as deterministic as the
# body.  Each command runs from its own tree's working directory with a
# relative `--out`, so the paths it prints and echoes are the same in both
# trees, and its stdout and stderr are compared whole too.  The negative
# control must exit 2 in both trees, every other command 0.  `sweep` is
# skipped for a config with no `*_grid` key, which it needs.
# For each config the head tree also runs the five table commands as one
# invocation, which writes each table into `<out>/<command>/`; each of
# those CSV files must equal, by cmp, the one the head's single-command run
# wrote, and the invocation's stderr each single run's stderr.  This check
# reads only the head tree.
# Then every `manifest.json` (a sweep's point manifests included) is
# compared between the trees, less `wall_clock_seconds` and `config.out`,
# and each one the head tree wrote is checked against the files beside it:
# each `outputs[]` entry's `sha256` and `bytes` must match.  Each manifest
# of the combined invocation is compared the same way with its table's
# single-command manifest.
# Exits 1 on any difference, on a CSV or manifest that only one tree
# writes, on a command that exits otherwise than expected in either tree,
# or on a checksum that does not match.
set -euo pipefail

base_src=$(cd "$1" && pwd)
head_src=$(cd "$2" && pwd)
shift 2
[ $# -gt 0 ] || set -- "$(dirname "$0")/compare_csv_bodies.cfg"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# each run: the exit code both trees must give, then the command and its flags
runs=("0 spectrum" "0 dynamics" "0 density" "0 entanglement" "0 thermal" "0 verify"
      "2 verify --negative-control" "0 sweep")
tables=(spectrum dynamics density entanglement thermal)
status=0
index=0
for given in "$@"; do
  config=$(realpath "$given")
  name=$(basename "$config")
  index=$((index + 1))
  for run in "${runs[@]}"; do
    read -r expect command flags <<< "$run"
    label=$command${flags:+-${flags#--}}
    if [ "$command" = sweep ] && ! grep -Eq '^[[:space:]]*[a-z_]+_grid[[:space:]]*=' "$config"; then
      echo "skip $name $label: no grid"
      continue
    fi
    for side in base head; do
      src=$base_src
      [ "$side" = head ] && src=$head_src
      run_dir="$work/$side/$index"
      log="$work/$side.$index.$label"
      mkdir -p "$run_dir"
      code=0
      # shellcheck disable=SC2086  # flags is empty or one flag
      (cd "$run_dir" && PYTHONPATH="$src" python -m dressedcavity.cli "$command" $flags \
          --config "$config" --out "$label" > "$log.stdout" 2> "$log.stderr") || code=$?
      if [ "$code" -ne "$expect" ]; then
        echo "FAIL $name $label: the $side tree exited $code, expected $expect"
        cat "$log.stdout" "$log.stderr"
        status=1
        continue 2
      fi
      (cd "$run_dir/$label" && find . -name '*.csv' | sort) > "$log.files"
    done
    for stream in stdout stderr; do
      if cmp -s "$work/base.$index.$label.$stream" "$work/head.$index.$label.$stream"; then
        echo "same $name $label: $stream ($(wc -l < "$work/head.$index.$label.$stream") lines)"
      else
        echo "DIFF $name $label: $stream"
        diff "$work/base.$index.$label.$stream" "$work/head.$index.$label.$stream" | head -20 \
          || true
        status=1
      fi
    done
    if ! cmp -s "$work/base.$index.$label.files" "$work/head.$index.$label.files"; then
      echo "FAIL $name $label: the trees write different CSV files"
      diff "$work/base.$index.$label.files" "$work/head.$index.$label.files" || true
      status=1
      continue
    fi
    while read -r csv; do
      base_csv="$work/base/$index/$label/$csv"
      head_csv="$work/head/$index/$label/$csv"
      if cmp -s "$base_csv" "$head_csv"; then
        echo "same $name $label: ${csv#./} ($(wc -l < "$head_csv") lines)"
      else
        echo "DIFF $name $label: ${csv#./}"
        status=1
      fi
    done < "$work/head.$index.$label.files"
  done
  # the five tables as one invocation of the head tree, against its single runs
  combined="$work/combined/$index"
  log="$work/combined.$index"
  mkdir -p "$combined"
  code=0
  (cd "$combined" && PYTHONPATH="$head_src" python -m dressedcavity.cli "${tables[@]}" \
      --config "$config" --out tables > "$log.stdout" 2> "$log.stderr") || code=$?
  if [ "$code" -ne 0 ]; then
    echo "FAIL $name combined: the head tree exited $code, expected 0"
    cat "$log.stdout" "$log.stderr"
    status=1
    continue
  fi
  for command in "${tables[@]}"; do
    single="$work/head/$index/$command/$command.csv"
    if cmp -s "$combined/tables/$command/$command.csv" "$single"; then
      echo "same $name combined: $command.csv ($(wc -l < "$single") lines)"
    else
      echo "DIFF $name combined: $command.csv"
      status=1
    fi
    if cmp -s "$log.stderr" "$work/head.$index.$command.stderr"; then
      echo "same $name combined: stderr of $command ($(wc -l < "$log.stderr") lines)"
    else
      echo "DIFF $name combined: stderr of $command"
      status=1
    fi
  done
done
python - "$work/base" "$work/head" "$work/combined" <<'EOF' || status=1
import hashlib, json, sys
from pathlib import Path


def comparable(manifest):
    """The manifest less what differs between any two runs: the wall clock
    and the output directory."""
    payload = json.loads(manifest.read_text())
    payload.pop("wall_clock_seconds", None)
    payload.get("config", {}).pop("out", None)
    return payload


base, head, combined = (Path(root) for root in sys.argv[1:])
names = {path.relative_to(root) for root in (base, head) for path in root.rglob("manifest.json")}
differ = 0
for name in sorted(names):
    if not (base / name).is_file() or not (head / name).is_file():
        print(f"FAIL manifest {name}: only one tree writes it")
        differ += 1
    elif (old := comparable(base / name)) != (new := comparable(head / name)):
        keys = sorted(key for key in old.keys() | new.keys() if old.get(key) != new.get(key))
        print(f"DIFF manifest {name}: {', '.join(keys)}")
        differ += 1
if not differ:
    print(f"same manifests: {len(names)}, less wall_clock_seconds and config.out")
# <index>/tables/<command>/manifest.json against the single run's <index>/<command>/
tables = sorted(combined.rglob("manifest.json"))
unequal = 0
for manifest in tables:
    index, _, command = manifest.relative_to(combined).parts[:3]
    single = head / index / command / "manifest.json"
    if not single.is_file():
        print(f"FAIL combined manifest {manifest.relative_to(combined)}: no single run wrote "
              f"{single.relative_to(head)}")
        unequal += 1
    elif (one := comparable(single)) != (many := comparable(manifest)):
        keys = sorted(key for key in one.keys() | many.keys() if one.get(key) != many.get(key))
        print(f"DIFF combined manifest {manifest.relative_to(combined)}: {', '.join(keys)}")
        unequal += 1
if not unequal:
    print(f"same combined manifests: {len(tables)}, less wall_clock_seconds and config.out")
manifests = sorted(head.rglob("manifest.json"))
bad = 0
for manifest in manifests:
    for entry in json.loads(manifest.read_text())["outputs"]:
        path = manifest.parent / entry["file"]
        data = path.read_bytes() if path.is_file() else None
        if data is None or entry["sha256"] != hashlib.sha256(data).hexdigest() \
                or entry["bytes"] != len(data):
            print(f"BAD checksum: {path} does not match {manifest}")
            bad += 1
if not bad:
    print(f"checksums ok: {len(manifests)} manifests")
sys.exit(1 if differ or unequal or bad else 0)
EOF
exit $status

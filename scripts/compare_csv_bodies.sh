#!/usr/bin/env bash
# Check that two source trees write byte-identical CSV bodies for one config.
#
#   scripts/compare_csv_bodies.sh BASE_SRC HEAD_SRC [CONFIG]
#
# BASE_SRC and HEAD_SRC are `src/` directories (for example of the target
# branch and of a change); CONFIG defaults to scripts/compare_csv_bodies.cfg,
# which fits in one block of every kind; scripts/compare_csv_bodies_blocks.cfg
# crosses the amplitude and spectral block boundaries.
# Each table subcommand, `verify` and `sweep` runs once from each tree;
# every CSV a command writes (for `sweep`, `sweep.csv` and each
# `points/*/dynamics.csv`) has its `#` metadata lines stripped and the
# remaining body compared with cmp.  `sweep` is skipped for a config with no
# `*_grid` key, which it needs.  Then every `manifest.json` the head tree
# wrote (a sweep's point manifests included) is checked against the files
# beside it: each `outputs[]` entry's `sha256` and `bytes` must match.
# Exits 1 on any difference, on a CSV that only one tree writes, on a
# command that fails in either tree, or on a checksum that does not match.
set -euo pipefail

base_src=$(cd "$1" && pwd)
head_src=$(cd "$2" && pwd)
config=$(realpath "${3:-$(dirname "$0")/compare_csv_bodies.cfg}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for command in spectrum dynamics density entanglement thermal verify sweep; do
  if [ "$command" = sweep ] && ! grep -Eq '^[[:space:]]*[a-z_]+_grid[[:space:]]*=' "$config"; then
    echo "skip sweep: no grid"
    continue
  fi
  for side in base head; do
    src=$base_src
    [ "$side" = head ] && src=$head_src
    out="$work/$side/$command"
    if ! PYTHONPATH="$src" python -m dressedcavity.cli "$command" --config "$config" \
        --out "$out" > "$work/$side.$command.log" 2>&1; then
      echo "FAIL $command: the $side tree exited nonzero"
      cat "$work/$side.$command.log"
      status=1
      continue 2
    fi
    (cd "$out" && find . -name '*.csv' | sort) > "$work/$side.$command.files"
  done
  if ! cmp -s "$work/base.$command.files" "$work/head.$command.files"; then
    echo "FAIL $command: the trees write different CSV files"
    diff "$work/base.$command.files" "$work/head.$command.files" || true
    status=1
    continue
  fi
  while read -r csv; do
    if cmp -s <(grep -v '^#' "$work/base/$command/$csv") <(grep -v '^#' "$work/head/$command/$csv"); then
      echo "same $command: ${csv#./} ($(grep -vc '^#' "$work/head/$command/$csv") lines)"
    else
      echo "DIFF $command: ${csv#./}"
      status=1
    fi
  done < "$work/head.$command.files"
done
python - "$work/head" <<'EOF' || status=1
import hashlib, json, sys
from pathlib import Path

manifests = sorted(Path(sys.argv[1]).rglob("manifest.json"))
bad = 0
for manifest in manifests:
    for entry in json.loads(manifest.read_text())["outputs"]:
        path = manifest.parent / entry["file"]
        data = path.read_bytes() if path.is_file() else None
        if data is None or entry["sha256"] != hashlib.sha256(data).hexdigest() \
                or entry["bytes"] != len(data):
            print(f"BAD checksum: {path} does not match {manifest}")
            bad += 1
if bad:
    sys.exit(1)
print(f"checksums ok: {len(manifests)} manifests")
EOF
exit $status

#!/usr/bin/env bash
# Check that two source trees write byte-identical CSV bodies for one config.
#
#   scripts/compare_csv_bodies.sh BASE_SRC HEAD_SRC [CONFIG]
#
# BASE_SRC and HEAD_SRC are `src/` directories (for example of the target
# branch and of a change); CONFIG defaults to scripts/compare_csv_bodies.cfg.
# Each table subcommand and `verify` runs once from each tree; the `#`
# metadata lines are stripped and the remaining bodies compared with cmp.
# Exits 1 on any difference or on a command that fails in either tree.
set -euo pipefail

base_src=$(cd "$1" && pwd)
head_src=$(cd "$2" && pwd)
config=$(realpath "${3:-$(dirname "$0")/compare_csv_bodies.cfg}")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

status=0
for command in spectrum dynamics density entanglement thermal verify; do
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
    grep -v '^#' "$out/$command.csv" > "$work/$side.$command.body"
  done
  if cmp "$work/base.$command.body" "$work/head.$command.body"; then
    echo "same $command.csv ($(wc -l < "$work/head.$command.body") lines)"
  else
    status=1
  fi
done
exit $status

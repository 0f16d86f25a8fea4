#!/usr/bin/env bash
# The installed console script, run after `python -m pip install .`: a
# default build and a query, then a verify whose micro-macro oracle loads
# reference.py on first use, and a string built by the default backend and
# by the paper's reduction at one cell a block, which must write the same
# index. Runs in a temporary directory, removed on exit.
#
#     bash tests/cli_installed.sh
set -euo pipefail
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
jumbled gen --kind tree --n 300 --seed 1 --out tree.txt
jumbled build --kind tree --input tree.txt --out tree.csv
jumbled query --profile tree.csv -i 7 -j 3
jumbled verify --kind tree --algo micro-macro --oracle simple-tree --max-n 50
jumbled gen --kind string --n 300 --seed 1 --out string.txt
jumbled build --kind string --input string.txt --out string.csv
jumbled build --kind string --input string.txt --algo blocked --block 1 --out blocked.csv
cmp string.csv blocked.csv

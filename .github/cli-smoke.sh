#!/usr/bin/env bash
# CLI smoke run: every subcommand on a tiny config, with its output checked.
# It writes its configs and outputs to the working directory.
set -euo pipefail

telegate gate-table --format csv

printf 'protocol: teleport\ncounts_per_setting: 100\nseed: 1\n' > smoke.yaml
telegate run smoke.yaml > smoke.json
python -c "import json; json.load(open('smoke.json'))"
telegate run smoke.yaml --format csv > smoke.csv
python -c "lines = open('smoke.csv').read().splitlines(); assert lines[0] == 'table,modes,setting,outcome,raw,corrected', lines[0]; assert len(lines) == 97, len(lines)"

printf 'targets: {F_H: 0.93, F_p: 0.75}\ngrid:\n  overlap: [0.9, 1.0, 3]\n  pair_mixedness: [0.0, 0.1, 2]\n  input_mixedness: [0.0, 0.1, 2]\n' > calibrate.yaml
telegate calibrate calibrate.yaml --format csv

printf 'protocol: swap\ncounts_per_setting: 100\nseed: 1\n' > swap.yaml
telegate run swap.yaml > swap.json
python -c "import json; json.load(open('swap.json'))"

printf 'protocol: gate-only\ncounts_per_setting: 100\nseed: 1\n' > gate.yaml
telegate run gate.yaml > gate.json
python -c "import json; json.load(open('gate.json'))"

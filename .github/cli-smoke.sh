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
telegate calibrate calibrate.yaml --format csv > calibrate.csv
python -c "lines = open('calibrate.csv').read().splitlines(); assert lines[0] == 'quantity,value', lines[0]; assert len(lines) == 11, len(lines)"
telegate calibrate calibrate.yaml > calibrate.json
python -c "
import json
res = json.load(open('calibrate.json'))
for key in ('overlap', 'pair_mixedness', 'input_mixedness', 'residual'):
    assert isinstance(res[key], float), (key, res[key])
assert set(res['predictions']) == {'F_H', 'F_V', 'F_+', 'F_R', 'F_p', 'F_avg'}, res['predictions']
"

printf 'protocol: swap\ncounts_per_setting: 100\nseed: 1\n' > swap.yaml
telegate run swap.yaml > swap.json
python -c "import json; json.load(open('swap.json'))"
telegate run swap.yaml --format csv > swap.csv
python -c "lines = open('swap.csv').read().splitlines(); assert len(lines) == 209, len(lines)"

printf 'protocol: gate-only\ncounts_per_setting: 100\nseed: 1\n' > gate.yaml
telegate run gate.yaml > gate.json
python -c "import json; json.load(open('gate.json'))"
telegate run gate.yaml --format csv > gate.csv
python -c "lines = open('gate.csv').read().splitlines(); assert len(lines) == 6, len(lines)"

# reports do not depend on the BLAS thread count
for config in smoke swap; do
  OPENBLAS_NUM_THREADS=1 telegate run $config.yaml > $config.threads1.json
  OPENBLAS_NUM_THREADS=2 telegate run $config.yaml > $config.threads2.json
  cmp $config.threads1.json $config.threads2.json
done

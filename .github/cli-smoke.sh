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

# swap targets: calibrate's swap side, one stacked evaluation of the pair grid per overlap
printf 'targets: {F_H: 0.93, F_p: 0.75, F_swap_avg: 0.773, S_abs_avg: 2.14}\ngrid:\n  overlap: [0.9, 1.0, 3]\n  pair_mixedness: [0.0, 0.1, 2]\n  input_mixedness: [0.0, 0.1, 2]\n' > calibrate-swap.yaml
telegate calibrate calibrate-swap.yaml --format csv > calibrate-swap.csv
python -c "lines = open('calibrate-swap.csv').read().splitlines(); assert lines[0] == 'quantity,value', lines[0]; assert len(lines) == 13, len(lines)"
telegate calibrate calibrate-swap.yaml > calibrate-swap.json
python -c "
import json
res = json.load(open('calibrate-swap.json'))
assert set(res['predictions']) == {'F_H', 'F_V', 'F_+', 'F_R', 'F_p', 'F_avg', 'F_swap_avg', 'S_abs_avg'}, res['predictions']
"

printf 'protocol: swap\ncounts_per_setting: 100\nseed: 1\n' > swap.yaml
telegate run swap.yaml > swap.json
python -c "import json; json.load(open('swap.json'))"
telegate run swap.yaml --format csv > swap.csv
python -c "lines = open('swap.csv').read().splitlines(); assert len(lines) == 209, len(lines)"

# 101 resamples: the bootstrap fits its last group of 4, which holds 1, and every error bar still
# comes out, for the two-qubit fits of swap and the one-qubit fits of teleport
for protocol_errors in swap:14 teleport:21; do
  protocol=${protocol_errors%:*}
  printf 'protocol: %s\ncounts_per_setting: 100\nseed: 1\nbootstrap_resamples: 101\n' "$protocol" > "$protocol-101.yaml"
  telegate run "$protocol-101.yaml" > "$protocol-101.json"
  python -c "
import json, sys
def errors(node, path=''):
    if isinstance(node, dict):
        for key, value in node.items():
            if key.endswith('_err'):
                yield path + key, value
            else:
                yield from errors(value, path + key + '/')
found = list(errors(json.load(open(sys.argv[1]))['results']))
assert len(found) == int(sys.argv[2]), found
assert all(isinstance(err, float) and err > 0.0 for _, err in found), found
" "$protocol-101.json" "${protocol_errors#*:}"
done

# a swap run on psi- pairs with a lossy detector: the exact swap grid at a target other than phi+
printf 'protocol: swap\npair_target: psi-\nefficiencies: {a+: 0.9}\ncounts_per_setting: 100\nseed: 1\n' > swap-psi.yaml
telegate run swap-psi.yaml > swap-psi.json
python -c "import json; json.load(open('swap-psi.json'))"
telegate run swap-psi.yaml --format csv > swap-psi.csv
python -c "lines = open('swap-psi.csv').read().splitlines(); assert len(lines) == 209, len(lines)"

printf 'protocol: gate-only\ncounts_per_setting: 100\nseed: 1\n' > gate.yaml
telegate run gate.yaml > gate.json
python -c "import json; json.load(open('gate.json'))"
telegate run gate.yaml --format csv > gate.csv
python -c "lines = open('gate.csv').read().splitlines(); assert len(lines) == 6, len(lines)"

# gate-only with a lossy detector: every corrected count is raw / eta, eta the product of the
# efficiencies of the outcome's detectors
printf 'protocol: gate-only\nefficiencies: {cV: 0.5}\ncounts_per_setting: 10000\nseed: 1\n' > gate-eff.yaml
telegate run gate-eff.yaml > gate-eff.json
python -c "import json; json.load(open('gate-eff.json'))"
telegate run gate-eff.yaml --format csv > gate-eff.csv
python -c "
import csv
rows = list(csv.DictReader(open('gate-eff.csv')))
assert len(rows) == 5, len(rows)
for row in rows:
    eta = 1.0
    for mode, outcome in zip(row['modes'], row['outcome']):
        eta *= {'cV': 0.5}.get(mode + outcome, 1.0)
    assert float(row['corrected']) == int(row['raw']) / eta, row
assert any(row['outcome'][1] == 'V' and int(row['raw']) > 0 for row in rows), rows
"

# reports and calibrations do not depend on the BLAS thread count; the channel's stored
# analyzer effects feed every analyzer matmul
for command in "run smoke" "run swap" "calibrate calibrate-swap"; do
  set -- $command
  OPENBLAS_NUM_THREADS=1 telegate "$1" "$2.yaml" > "$2.threads1.json"
  OPENBLAS_NUM_THREADS=2 telegate "$1" "$2.yaml" > "$2.threads2.json"
  cmp "$2.threads1.json" "$2.threads2.json"
done

# bad input: one line on stderr and its exit code (2 config, 3 numerical), never a traceback
expect_failure() {  # <exit code> <stderr prefix> <command...>
  local want=$1 prefix=$2 code=0
  shift 2
  "$@" > /dev/null 2> failure.err || code=$?
  if [ "$code" -ne "$want" ]; then
    echo "exit $code, expected $want: $*" >&2
    cat failure.err >&2
    exit 1
  fi
  python -c "
import sys
text = open('failure.err').read()
assert 'Traceback' not in text and len(text.splitlines()) == 1, text
assert text.startswith(sys.argv[1]), text
" "$prefix"
}

printf 'protocol: nope\n' > bad-protocol.yaml
expect_failure 2 "config error:" telegate run bad-protocol.yaml
printf 'protocol: teleport\nnope: 1\n' > bad-field.yaml
expect_failure 2 "config error:" telegate run bad-field.yaml
expect_failure 2 "config error:" telegate run no-such-config.yaml
printf 'targets: {F_H: 0.93}\ngrid:\n  overlap: [0.9, 1.0, 1000]\n  pair_mixedness: [0.0, 0.1, 1000]\n  input_mixedness: [0.0, 0.1, 2]\n' > big-grid.yaml
expect_failure 2 "config error:" telegate calibrate big-grid.yaml
# an empty output path is a config error, not a run that writes nothing
expect_failure 2 "config error:" telegate run smoke.yaml --out ""
expect_failure 2 "config error:" telegate calibrate calibrate.yaml --out ""
# one count per setting leaves a CHSH setting without counts
printf 'protocol: swap\ncounts_per_setting: 1\nseed: 1\n' > starved.yaml
expect_failure 3 "numerical failure:" telegate run starved.yaml

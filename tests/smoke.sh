#!/usr/bin/env bash
# End-to-end smoke of the installed `revflow` console script: validate, a short
# run, a dumbbell pinch, a converging run through the Newton endgame, its CMC
# limit and a-priori radii, a sweep against `revflow run`, a failed space
# validation and two config errors.  Usage: bash tests/smoke.sh [scratch directory]
set -euo pipefail
out=${1:-$(mktemp -d)}
mkdir -p "$out"

cat > "$out/smoke.ini" <<'EOF'
[space]
preset = euclidean
n = 2

[domain]
a = 0.0
b = 1.0

[grid]
m = 21

[initial]
cylinder = 1.0
perturb = 0.05*cos(pi*z)

[flow]
max_t = 0.1
EOF
revflow validate --config "$out/smoke.ini"
revflow run --config "$out/smoke.ini" --out "$out/out"
test -f "$out/out/summary.json"
# a dumbbell pinch: SBDF2 steps, nearly all accepted at their first try, whose
# dt shrinks with the neck down to the singularity at the neck, z = 0.5, within
# 2 dz = 2/(m - 1), that is within 2 nodes
cat > "$out/pinch.ini" <<'EOF'
[space]
preset = euclidean
n = 2

[domain]
a = 0.0
b = 1.0

[grid]
m = 101

[initial]
expr = 0.05 + 0.9*cos(pi*z)^6

[flow]
max_t = 2.0
EOF
revflow run --config "$out/pinch.ini" --out "$out/pinch"
python -c 'import json, sys; s = json.load(open(sys.argv[1])); sys.exit(s["reason"] != "singularity" or round(abs(s["location"] - 0.5) * (101 - 1)) > 2)' "$out/pinch/summary.json"
# a converging run: one SBDF2 step to the hand-off (gap < 2 |Hbar|, the slowest
# mode's share >= 0.5, its decay rate k0 = lambda1 + (rate - lambda1)/3 within 5%
# of lambda1), then the Newton endgame, whose lambda1 is the cylinder's decay
# rate pi^2 - 1/R^2
cat > "$out/converge.ini" <<'EOF'
[space]
preset = euclidean
n = 2

[domain]
a = 0.0
b = 1.0

[grid]
m = 101

[initial]
cylinder = 1.0
perturb = 0.1*cos(pi*z)

[flow]
max_t = 10
EOF
revflow run --config "$out/converge.ini" --out "$out/converge"
python -c 'import json, math, sys; s = json.load(open(sys.argv[1])); e, f = s["endgame"], s["final"]; sys.exit(s["reason"] != "converged" or e is None or e["step"] != 1 or not e["gap"] < 2 * abs(f["Hbar"]) or not e["share"] >= 0.5 or not abs((e["lambda1"] + (e["rate"] - e["lambda1"]) / 3) / e["lambda1"] - 1) <= 0.05 or not abs(e["lambda1"] / (math.pi ** 2 - 1 / f["max_r"] ** 2) - 1) <= 1e-3)' "$out/converge/summary.json"
# the CMC cylinder of its volume (exit 0 under `set -e`) is its discrete limit: a
# zero residual, the limit's Hbar and its radius
cp "$out/converge.ini" "$out/cmc.ini"
python -c 'import json, sys; print("\n[cmc]\nmode = cylinder\nvolume = %r" % json.load(open(sys.argv[1]))["final"]["V"])' "$out/converge/summary.json" >> "$out/cmc.ini"
revflow cmc --config "$out/cmc.ini" --out "$out/cmc" > "$out/cmc.json"
python -c 'import json, sys; c = json.load(open(sys.argv[1])); f = json.load(open(sys.argv[2]))["final"]; sys.exit(c["residual"] != 0 or not abs(c["H_const"] - f["Hbar"]) <= 1e-12 or not abs(c["r_at_a"] - f["max_r"]) <= 1e-12)' "$out/cmc.json" "$out/converge/summary.json"
# its a-priori radii (exit 0 under `set -e`): r3 < r1 < r2, and r1, the radius of
# the volume-matching cylinder, is the run's discrete limit
revflow bounds --config "$out/converge.ini" > "$out/bounds.json"
python -c 'import json, sys; b = json.load(open(sys.argv[1])); f = json.load(open(sys.argv[2]))["final"]; sys.exit(not b["r3"] < b["r1"] < b["r2"] or not abs(b["r1"] - f["max_r"]) <= 1e-12)' "$out/bounds.json" "$out/converge/summary.json"
# a sweep group (members differing only in [initial]) steps as one ensemble:
# --jobs 1 and --jobs 2 write the same trees, and each member's history is
# that of `revflow run` on its own config
cat "$out/converge.ini" > "$out/sweep.ini"
printf '\n[sweep]\ninitial.perturb = 0.1*cos(pi*z), 0.95*cos(pi*z)^6 - 0.9, 1.5*cos(pi*z)\n' >> "$out/sweep.ini"
revflow sweep --config "$out/sweep.ini" --out "$out/sweep1" --jobs 1
revflow sweep --config "$out/sweep.ini" --out "$out/sweep2" --jobs 2
diff -r "$out/sweep1" "$out/sweep2"
python -c 'import csv, sys; rows = list(csv.DictReader(open(sys.argv[1]))); sys.exit([r["reason"] for r in rows] != ["converged", "singularity", "error"])' "$out/sweep1/sweep.csv"
cmp "$out/sweep1/run_0000/history.csv" "$out/converge/history.csv"
# a failed space validation (h = r - r^2 vanishes at r = 1, within the profile's
# radii): `revflow run` exits 2 and writes no summary
cat > "$out/h_vanishes.ini" <<'EOF'
[space]
preset = custom
n = 2
f = 1
df = 0
d2f = 0
h = r - r^2
dh = 1 - 2*r
d2h = -2

[validate]
r_probe_max = 0.5

[domain]
a = 0.0
b = 1.0

[grid]
m = 51

[initial]
expr = 0.9 + 0.1*cos(pi*z)^2

[flow]
max_t = 5.0
EOF
code=0
revflow run --config "$out/h_vanishes.ini" --out "$out/h_vanishes" || code=$?
test "$code" -eq 2
test ! -e "$out/h_vanishes/summary.json"
# a misspelled section is a config error: `revflow run` exits 1 and makes no
# output directory
sed 's/^\[flow\]$/[flwo]/; s/^max_t = 0.1$/max_t = 0.01/' "$out/smoke.ini" > "$out/flwo.ini"
grep -qx '\[flwo\]' "$out/flwo.ini"
code=0
revflow run --config "$out/flwo.ini" --out "$out/flwo" || code=$?
test "$code" -eq 1
test ! -e "$out/flwo"
# so is a [cmc] option beside a mode it does not apply to: `revflow cmc` exits 1
# and makes no output directory
cp "$out/smoke.ini" "$out/cmc_guess.ini"
printf '\n[cmc]\nmode = cylinder\nvolume = 3.0\nguess = 1.0\n' >> "$out/cmc_guess.ini"
code=0
revflow cmc --config "$out/cmc_guess.ini" --out "$out/cmc_guess" || code=$?
test "$code" -eq 1
test ! -e "$out/cmc_guess"
# README's example config, its one ```ini block, works with every subcommand
# (exit 0 under `set -e`), and its sweep over initial.perturb sweeps something:
# the rows' volumes are distinct
python -c 'import re, sys; b = re.findall(r"```ini\n(.*?)```", open(sys.argv[1]).read(), re.S); sys.exit(len(b) != 1 or open(sys.argv[2], "w").write(b[0]) == 0)' "$(dirname "$0")/../README.md" "$out/readme.ini"
revflow validate --config "$out/readme.ini" > /dev/null
revflow bounds --config "$out/readme.ini" > /dev/null
revflow run --config "$out/readme.ini" --out "$out/readme_run"
revflow cmc --config "$out/readme.ini" --out "$out/readme_cmc" > /dev/null
revflow sweep --config "$out/readme.ini" --out "$out/readme_sweep"
python -c 'import csv, sys; v = [r["V"] for r in csv.DictReader(open(sys.argv[1]))]; sys.exit(len(v) < 2 or len(set(v)) != len(v))' "$out/readme_sweep/sweep.csv"
echo "smoke: ok"

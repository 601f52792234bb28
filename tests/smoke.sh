#!/usr/bin/env bash
# End-to-end smoke of the installed `revflow` console script: validate, a short
# run, a dumbbell pinch, a converging run through the Newton endgame, its CMC
# limit and a-priori radii, a sweep against `revflow run`, and a failed space
# validation.  Usage: bash tests/smoke.sh [scratch directory]
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
# a dumbbell pinch: SBDF2 steps with rejected tries down to the singularity
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
python -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["reason"] != "singularity")' "$out/pinch/summary.json"
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
echo "smoke: ok"

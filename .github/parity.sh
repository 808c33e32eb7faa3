#!/usr/bin/env bash
# The reference outputs of the command line: every case that CI's parity job
# compares byte for byte between the base commit and the head.
#
# usage: .github/parity.sh SRC_TREE OUT_DIR
#
# Runs `python -m miquel.cli` from SRC_TREE/src over scene files written into
# OUT_DIR, and leaves each case's stdout, its stderr (in *.err) and its exit
# code (in exit-codes.txt) there. Two trees' OUT_DIRs compare with `diff -r`.
set -eo pipefail
if [ "$#" -ne 2 ]; then
  echo "usage: $0 SRC_TREE OUT_DIR" >&2
  exit 2
fi
src=$(cd "$1" && pwd)
mkdir -p "$2"
cd "$2"
: > exit-codes.txt
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3]}' > tri.json
# README's triangle with a point and a triad; a right angle at A
# (degenerate S_A and M_A rows); a point on side BC (exit 1); an
# obtuse angle at C
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2, 1], "triad": [0.3, 0.3, 0.3]}' > scene.json
echo '{"A": [0, 0], "B": [4, 0], "C": [0, 3], "P": [1, 1], "triad": [0.2, 0.5, 0.7]}' > right.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2.5, 1.5], "triad": [0.3, 0.3, 0.3]}' > side.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1.6, 0.9], "P": [1.5, 0.4], "triad": [0.3, 0.3, 0.3]}' > obtuse.json
# so thin that circumcircle calls it collinear (exit 1)
echo '{"A": [0, 0], "B": [1, 0], "C": [1, 7e-10]}' > thin.json
# thin but not collinear: excenter_C, S_C and M_C are at infinity
echo '{"A": [0, 0], "B": [1, 0], "C": [0.5, 2e-9]}' > thin-iso.json
# P on the circumcircle of tri.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [4.23606797749979, 1]}' > oncircle.json
# isosceles at A; (2.25, 0.75) is on the circle through B, C and
# the incenter
echo '{"A": [0, 4], "B": [-3, 0], "C": [3, 0]}' > iso.json
# the obtuse scene drawn from its obtuse vertex C, where F is
# A + B - C; the point on the circle drawn from the acute vertex B
echo '{"A": [0, 0], "B": [4, 0], "C": [1.6, 0.9], "P": [1.5, 0.4], "triad": [0.3, 0.3, 0.3], "options": {"vertex": "C"}}' > obtuse-c.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [4.23606797749979, 1], "options": {"vertex": "B"}}' > oncircle-b.json
# a triad and no point
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [0.3, 0.3, 0.3]}' > triad-only.json
# Y a hair from A: the Miquel circle AYZ just outside the collinearity
# band (drawn) and just inside it (exit 1)
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [0.5, 0.9999999993, 0.5]}' > band-out.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [0.5, 0.9999999994, 0.5]}' > band-in.json
# a finite triad parameter whose point X overflows
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "triad": [1e308, 0.3, 0.3]}' > huge-triad.json
# scene.json drawn without labels at another width
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "P": [2, 1], "triad": [0.3, 0.3, 0.3], "options": {"labels": false, "width": 300}}' > plain.json
# schema rejections (each exit 2): not an object, a boolean
# rotation, options that are not an object, a numeric label
# switch and an unknown vertex
echo '[]' > not-object.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "theta": true}' > bool-theta.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": 3}' > number-options.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": {"labels": 1}}' > number-labels.json
echo '{"A": [0, 0], "B": [4, 0], "C": [1, 3], "options": {"vertex": "D"}}' > vertex-d.json
export PYTHONPATH="$src/src"
# argparse wraps help text to the terminal width
export COLUMNS=80
run() {  # $1: stdout file, the rest: miquel arguments
  out="$1"; shift
  code=0
  # stderr is compared too, in $out.err, without verify's wall
  # clock line (sed, unlike grep -v, exits 0 when no line is left)
  python -m miquel.cli "$@" > "$out" 2> "$out.err" || code=$?
  if [ "$1" = verify ]; then
    sed -i '/^wall clock /d' "$out.err"
  fi
  echo "$out $code" >> exit-codes.txt
}
# the help texts: `figure --help` lists every drawable element,
# though `figure` imports the renderer only when it runs
run help.txt --help
run help-figure.txt figure --help
run help-verify.txt verify --help
run help-chain.txt chain --help
run verify.txt verify --suite all --seed 7
run verify.json verify --suite all --seed 7 --json
run verify-3.json verify --suite all --seed 3 --json
run verify-11.json verify --suite all --seed 11 --json
# no trial to run (exit 2)
run verify-0.txt verify --suite theorem14 --trials 0
# trial-count overrides at which every claim gets trials
run verify-15-3.json verify --suite theorem15 --seed 7 --trials 3 --json
run verify-lemma1-7.txt verify --suite lemma1 --seed 3 --trials 7
# the coordinate paths of theorem1, theorem2 and lemma1, well past
# their default trial counts
run verify-theorem1-5000.json verify --suite theorem1 --seed 5 --trials 5000 --json
run verify-theorem2-3000.json verify --suite theorem2 --seed 5 --trials 3000 --json
run verify-lemma1-3000.json verify --suite lemma1 --seed 5 --trials 3000 --json
# the directed-angle residuals of theorem10, theorem11 and theorem13,
# past their default trial counts
run verify-theorem10-1000.json verify --suite theorem10 --seed 5 --trials 1000 --json
run verify-theorem11-1000.json verify --suite theorem11 --seed 5 --trials 1000 --json
run verify-theorem13-1000.json verify --suite theorem13 --seed 5 --trials 1000 --json
# the circumcircle tests of theorem3 and theorem4, theorem9's median
# line and second intersections, and the Simson lines, past their
# default trial counts
run verify-theorem3-1000.json verify --suite theorem3 --seed 5 --trials 1000 --json
run verify-theorem4-1000.json verify --suite theorem4 --seed 5 --trials 1000 --json
run verify-theorem9-1000.json verify --suite theorem9 --seed 5 --trials 1000 --json
run verify-simson-1000.json verify --suite simson --seed 5 --trials 1000 --json
# the pedal centers of theorem5, theorem6 and theorem7, the Brocard
# points of theorem8 and the isogonal pairs of theorem12, past their
# default trial counts
run verify-theorem5-1000.json verify --suite theorem5 --seed 5 --trials 1000 --json
run verify-theorem6-1000.json verify --suite theorem6 --seed 5 --trials 1000 --json
run verify-theorem7-1000.json verify --suite theorem7 --seed 5 --trials 1000 --json
run verify-theorem8-1000.json verify --suite theorem8 --seed 5 --trials 1000 --json
run verify-theorem12-1000.json verify --suite theorem12 --seed 5 --trials 1000 --json
# detection and the Brocard-angle condition on chain coordinates,
# and lemma2's coordinate path, past their default trial counts
run verify-corollary4-300.json verify --suite corollary4 --seed 5 --trials 300 --json
run verify-theorem15-300.json verify --suite theorem15 --seed 5 --trials 300 --json
run verify-lemma2-3000.json verify --suite lemma2 --seed 5 --trials 3000 --json
run chain.txt chain --in tri.json --point 2,1 --steps 6
run chain.json chain --in tri.json --point 2,1 --steps 6 --json
# chains whose detected roles cycle: S_C (s, m, q), M_C, excenter_A
# and the first Brocard point
run chain-sc.json chain --in tri.json --point 1.3,0.9 --steps 6 --json
run chain-mc.json chain --in tri.json --point 1.6,1.2 --steps 6 --json
run chain-exa.json chain --in tri.json --point 5.702459173643832,4.110100026397431 \
  --steps 6 --json
run chain-brocard.json chain --in tri.json \
  --point 1.4012738853503184,0.7643312101910829 --steps 6 --json
# an arc point of the isosceles scene: q_role(A), and a chain whose
# roles cycle q, s, m through detection's arc fallback
run iso-classify.json classify --in iso.json --point 2.25,0.75 --json
run iso-chain.json chain --in iso.json --point 2.25,0.75 --steps 6 --json
# detection on the right-angled scene, which skips S_A and M_A:
# m_role(B), s_role(C), and a chain whose roles cycle S, M, q at B
# through the arc fallback
run right-classify-mb.json classify --in right.json \
  --point 0.4931506849315068,1.3150684931506849 --json
run right-classify-sc.json classify --in right.json \
  --point 0.6923076923076923,1.0384615384615385 --json
run right-chain-sb.json chain --in right.json \
  --point 1.7534246575342465,0.6575342465753424 --steps 6 --json
# no mod-3 line; the step cap; one past it (exit 2)
run chain-2.txt chain --in tri.json --point 2,1 --steps 2
# the shortest chain that prints a mod-3 line
run chain-3.txt chain --in tri.json --point 2,1 --steps 3
run chain-12.txt chain --in tri.json --point 2,1 --steps 12
run chain-13.txt chain --in tri.json --point 2,1 --steps 13
# no step at all (exit 2)
run chain-0.txt chain --in tri.json --point 2,1 --steps 0
# theorem14's depth on the rotated-family path
run chain-9-thetas.json chain --in tri.json --point 2,1 --steps 9 \
  --thetas 0.3,-0.5,0.7,0.1,-0.9,0.4,0.2,-0.6,0.8 --json
# the step cap on the rotated-family path
run chain-12-thetas.json chain --in tri.json --point 2,1 --steps 12 \
  --thetas 0.3,-0.5,0.7,0.1,-0.9,0.4,0.2,-0.6,0.8,-0.3,0.5,-0.7 --json
# a NaN rotation and one past pi/2 - 1e-9 (exit 1); one just inside
# it, which stretches step 2 about 1e7 times (exit 0)
run chain-nan.txt chain --in tri.json --point 2,1 --steps 3 --thetas 0.1,nan,0.2
run chain-half-pi.txt chain --in tri.json --point 2,1 --steps 3 --thetas 0.1,1.5708,0.2
run chain-stretch.txt chain --in tri.json --point 2,1 --steps 3 \
  --thetas 0.1,1.5707963,0.2
# a point on the circumcircle (exit 1)
run chain-on-circle.txt chain --in tri.json --point 4.23606797749979,1 --steps 3
run thin-centers.txt centers --in thin.json
# the rows at infinity, in the table and as the candidates
# detection skips
run thin-iso-centers.txt centers --in thin-iso.json
run thin-iso-centers.json centers --in thin-iso.json --json
run thin-iso-classify.txt classify --in thin-iso.json --point 0.5,1
run centers.txt centers --in tri.json
run classify.txt classify --in tri.json --point 2,1
# the orthocenter
run classify-h.txt classify --in tri.json --point 1,1
# pedal maps other than the identity: S_C (mirrored), Ω₁ (direct),
# and their circumcircle inverses, S_C's on line AB (a leading
# minus works in both --point=X,Y and --point X,Y)
run classify-sc.txt classify --in tri.json --point 1.3,0.9
run classify-brocard.txt classify --in tri.json \
  --point 1.4012738853503184,0.7643312101910829
run classify-brocard-inverse.txt classify --in tri.json \
  --point=-5.230769230769232,-1.8461538461538454
run classify-sc-inverse.txt classify --in tri.json --point=-5,0
# the same maps as JSON fields: S_C, Ω₁ and Ω₁'s inverse
run classify-sc.json classify --in tri.json --point 1.3,0.9 --json
run classify-brocard.json classify --in tri.json \
  --point 1.4012738853503184,0.7643312101910829 --json
run classify-brocard-inverse.json classify --in tri.json \
  --point=-5.230769230769232,-1.8461538461538454 --json
run classify-tol.txt classify --in tri.json --point 2,1 --tolerance 1e-6
# a bad tolerance exits 2, but a broken scene is reported first (exit 1)
run classify-nan.txt classify --in tri.json --point 2,1 --tolerance nan
run thin-classify-nan.txt classify --in thin.json --point 0.5,0 --tolerance nan
run fig.svg figure --in tri.json --elements circumcircle,centers
# an output file that cannot be written (exit 2)
run fig-no-dir.svg figure --in tri.json --elements circumcircle --out no-such-dir/x.svg
# M_C of the obtuse scene, reached through the obtuse-vertex case
run obtuse-mc.txt classify --in obtuse.json --point 0.35051546391752575,3.711340206185567
# a NaN rotation is out of range (exit 1); circles AYZ and BZX
# touch at Z, so the tangency line is printed
run family-nan.txt family --in tri.json --point 2,1 --theta nan
run miquel-tangent.txt miquel --in tri.json --triad 0.2,0.8,0.1716117818584988
# the pedal triad as the family member at theta = 0, a member at a
# negative rotation, and a non-finite triad parameter (exit 2)
run family-0.json family --in tri.json --point 2,1 --theta 0 --json
run family-neg.json family --in tri.json --point 2,1 --theta -0.7 --json
run miquel-nan.txt miquel --in tri.json --triad nan,0.3,0.3
# a triad point that overflows, from the flag and from the scene,
# drawn and as construction circles (each exit 2)
run miquel-huge.txt miquel --in tri.json --triad 1e308,0.3,0.3
run huge-triad-miquel.txt miquel --in huge-triad.json
# the Miquel circle AYZ just inside the collinearity band (exit 1)
# and just outside it, as the command and drawn
run miquel-band-in.txt miquel --in tri.json --triad 0.5,0.9999999994,0.5
run miquel-band-out.txt miquel --in tri.json --triad 0.5,0.9999999993,0.5
run band-out-circles.svg figure --in band-out.json --elements miquel-circles
run band-in-circles.svg figure --in band-in.json --elements miquel-circles
# the triad layers from the scene's triad with no point, and with
# neither (exit 2)
run triad-only-fig.svg figure --in triad-only.json --elements triad,miquel-circles
run no-triad-fig.svg figure --in tri.json --elements triad
run huge-triad-fig.svg figure --in huge-triad.json --elements triad
run huge-triad-circles.svg figure --in huge-triad.json --elements miquel-circles
# collinear construction circles; a Simson line of a point off the
# circle; a pedal triangle of a point on it (each exit 1)
run miquel-collinear.txt miquel --in tri.json --triad 0,0,0
run simson-off-circle.svg figure --in scene.json --elements simson
run pedal-on-circle.svg figure --in oncircle.json --elements pedal
# the same point's Simson deviation, its Simson line and a family
# member; S_C's circumcircle inverse, a catalog point on line AB,
# which family refuses (exit 1)
run classify-on-circle.txt classify --in oncircle.json
run simson-on-circle.svg figure --in oncircle.json --elements circumcircle,simson
run obtuse-c-fig.svg figure --in obtuse-c.json \
  --elements circumcircle,centers,median-symmedian
run oncircle-b-fig.svg figure --in oncircle-b.json \
  --elements circumcircle,simson,median-symmedian
run family-on-circle.txt family --in oncircle.json --theta 0.3
run family-on-side.txt family --in tri.json --point=-5,0 --theta 0.3
run plain-fig.svg figure --in plain.json \
  --elements circumcircle,miquel-circles,pedal,triad,centers,median-symmedian
# residual_rel and pedal_ratio, which show every bit of the
# scene's circumradius
run scene-miquel.json miquel --in scene.json --json
run scene-family.json family --in scene.json --json
for s in not-object bool-theta number-options number-labels vertex-d; do
  run $s-centers.txt centers --in $s.json
done
for s in scene right side obtuse; do
  run $s-centers.json centers --in $s.json --json
  run $s-classify.txt classify --in $s.json
  run $s-miquel.txt miquel --in $s.json --triad 0.2,0.4,0.6
  run $s-family.txt family --in $s.json --theta 0.3
  run $s-chain.txt chain --in $s.json --steps 4 --thetas 0.1,0.2,-0.3,0.4
  run $s-fig.svg figure --in $s.json \
    --elements circumcircle,miquel-circles,pedal,triad,centers,median-symmedian
done

#!/bin/sh
# Walk every CLI command once with JSON output.  Serves as executable
# documentation; each line is copy-pasteable on its own.
set -e

run() {
    echo "\$ oagkit $*"
    oagkit "$@" --format json
    echo
}

# Parsing and truth
run parse --group Z "(exists (x) (and (< (c 0) x) (< x (c 5)) (congr 2 x (c 0))))"
run decide --group Z "(forall (x) (exists (y) (= x (* 2 y))))"
run decide --group Q "(forall (x) (exists (y) (= x (* 2 y))))"

# Quantifier elimination over a free variable
run qe --group Z*Z "(exists (y) (and (<= y x) (= x (* 2 y))))"

# On a dense coordinate the answer carries rational constants
run qe --group Z*Q "(exists (y) (and (= x (* 2 y)) (< (* 3 y) (c 0 1))))"

# Equivalence is insensitive to where a window starts
run equiv --group Z*Z \
    "(<= (c 1 1) (* 2 z))" \
    "(<= (c 1 7) (* 2 z))"

# Structure of a definable set and of an end segment
run nice --group Z "(and (< (c 3) x) (congr 3 x (c 1)))" --var x
run endseg --group Z*Z "(<= (c 1 1) (* 2 z))" --var z

# Canonical codes round-trip through files (a fixed name in a fresh
# directory, so the echoed command is the same on every run)
dir=$(mktemp -d)
oagkit code --group Z "(< (c 5) x)" --var x --format json > "$dir/code.json"
(cd "$dir" && run reconstruct --group Z --file code.json)
rm -rf "$dir"

# Types, invariants, residue systems
run typegen --group Z "(and (< (c 5) x) (congr 3 x (c 1)))" --var x
run rank --group Z*Z*Z
run chi --group Z*Q*Z 3
run reps --group Z*Z 2 3

# Randomized differential check of the eliminator against enumeration
run fuzzcheck --group Z --count 50 --seed 7

#!/bin/sh
# A quick walk through the command-line interface.  Every invocation
# prints a single JSON report; exit code 2 flags a successfully derived
# impossibility, which is a result, not a failure.  The tour stops at the
# first command that fails, and exits nonzero unless the last command
# derives its contradiction.
set -eu

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

echo '# the doubled code on 6 coordinates'
nodalcodes code de 3 --pretty

echo
echo '# the same code as a file: a "length dim" header, then generator rows'
printf '6 2\n110011\n001111\n' > "$workdir/de3.code"
nodalcodes code analyze "$workdir/de3.code" --pretty

echo
echo '# its Construction-A lattice at half scaling is D6'
nodalcodes lattice build "$workdir/de3.code" --scaling half \
    --out "$workdir/de3.lattice"
nodalcodes lattice identify "$workdir/de3.lattice" --pretty

echo
echo '# invariants of a double cover branched on four nodal curves'
nodalcodes cover invariants --chi 1 --k2 4 --r 1 --m 4 --pretty

echo
echo '# enumerate weight-4 codes of length 7, caching the run'
nodalcodes code enumerate --length 7 --weights 4 --dim-min 1 --dim-max 7 \
    --cache "$workdir/cache" --pretty
echo '# cache contents:'
cat "$workdir/cache"/*.jsonl

echo
echo '# no involution exists on a K^2 = 9 surface with p_g = 0 (exit 2)'
status=0
nodalcodes classify involution --k2 9 --pretty || status=$?
echo "exit code: $status"
if [ "$status" -ne 2 ]; then
    echo "expected exit code 2" >&2
    exit 1
fi

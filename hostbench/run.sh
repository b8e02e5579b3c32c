#!/bin/sh
# Builds hostbench from the checkout it is run in and runs it; every
# argument is passed through.  Run from the repository root:
#
#   sh hostbench/run.sh --workload select --seed 1 --seconds 20 --trace 0
#
# The dune cache is off, so building writes nothing outside the checkout.
exec dune exec --root . --cache=disabled --display=quiet --no-print-directory \
  ./hostbench/main.exe -- "$@"

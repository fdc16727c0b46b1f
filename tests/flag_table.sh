#!/bin/sh
# Checks how an experiment binary with an --n flag bounded to 2..8
# (exp_e1_flp, model_checking) answers bad and help arguments:
#   sh tests/flag_table.sh build/bench/exp_e1_flp
# Each row: the exit status the binary must give, then its arguments.
# Exit 0 when every row holds; otherwise one line per failed row, exit 1.
bin=$1
failed=0
row() {
  want=$1
  shift
  "$bin" "$@" >/dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: $bin $*: exit $got, want $want"
    failed=1
  fi
}
row 2 --trails 2   # unknown flag
row 2 stray        # stray positional
row 2 --n 1        # out of range (check::explore needs 2..8)
row 2 --trials 3x  # malformed number
row 0 --help
# --help lists the flags and runs nothing: no "== title ==" banner.
help=$("$bin" --help)
case $help in
  *"--trials <v>"*) ;;
  *) echo "FAIL: $bin --help does not list --trials <v>"; failed=1 ;;
esac
case $help in
  *"=="*) echo "FAIL: $bin --help ran the experiment"; failed=1 ;;
esac
exit $failed

#!/bin/sh
# Runs an experiment binary at --trials 3 on one worker thread and on four,
# and checks that the thread count does not change what it prints:
#   sh tests/thread_count_smoke.sh build/bench/exp_e6_chain_rand
# Both runs must exit 0, and their stdout must match apart from the
# "trials/config=... threads=N" header line. Exit 0 when they do; otherwise
# one line per failure (and a diff of the two outputs), exit 1.
bin=$1
tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
failed=0
for threads in 1 4; do
  "$bin" --trials 3 --threads "$threads" >"$tmp/raw$threads"
  got=$?
  if [ "$got" -ne 0 ]; then
    echo "FAIL: $bin --trials 3 --threads $threads: exit $got, want 0"
    failed=1
  fi
  grep -v '^trials/config=.* threads=[0-9]*$' "$tmp/raw$threads" >"$tmp/out$threads"
done
if ! cmp -s "$tmp/out1" "$tmp/out4"; then
  echo "FAIL: $bin prints different output at --threads 1 and --threads 4"
  diff "$tmp/out1" "$tmp/out4"
  failed=1
fi
exit $failed

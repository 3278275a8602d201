#!/bin/sh
# compat.sh — the previous build against this one.
#
# Builds mwworker and mmserve (for its -submit client) from revision
# REV, and both from the working tree, into .bench_build/compat/, starts
# the current mmserve with two current workers, and checks that:
#
#   - REV's worker is refused at join: the master logs the refusal,
#     naming the protocol version, and the worker exits within 1 s —
#     non-zero naming the versions, or, built before the version check
#     (it reads the refusal as a goodbye), having served no task;
#   - REV's client is refused at submit: it exits non-zero within 1 s,
#     naming the protocol version;
#   - the current fleet then still finishes one matmul and one LU submit
#     bit-exact (the client's -verify).
#
# REV defaults to the last commit before HEAD that touched
# internal/netmw/proto.go. The source comes from git archive into a
# temporary directory, so the check needs the repository's history but
# no network, and leaves only binaries behind. Run it as
# `make compat` or `make compat REV=<rev>`.
set -eu

root=$(git rev-parse --show-toplevel)
cd "$root"
rev=${REV:-$(git log -n 1 --format=%h HEAD^ -- internal/netmw/proto.go)}
rev=$(git rev-parse --short "$rev^{commit}")
out=$root/.bench_build/compat
old=$out/$rev
cur=$out/current
work=$(mktemp -d "${TMPDIR:-/tmp}/compat.XXXXXX")
pids=""
cleanup() {
	for p in $pids; do kill "$p" 2>/dev/null || true; done
	for p in $pids; do wait "$p" 2>/dev/null || true; done
	rm -rf "$work"
}
trap cleanup EXIT INT TERM

fail() {
	echo "compat: FAIL: $*" >&2
	for f in "$work"/*.log; do
		echo "--- $(basename "$f")" >&2
		cat "$f" >&2
	done
	exit 1
}

echo "compat: building $rev and the working tree"
mkdir -p "$work/src" "$old" "$cur"
git archive "$rev" | tar -x -C "$work/src"
(cd "$work/src" && go build -o "$old/" ./cmd/mwworker ./cmd/mmserve)
go build -o "$cur/" ./cmd/mwworker ./cmd/mmserve

# now_ms prints the wall clock in milliseconds.
now_ms() { echo $(($(date +%s%N) / 1000000)); }

"$cur/mmserve" -addr 127.0.0.1:0 -hb-timeout 5s -expiry-every 1s >"$work/mmserve.log" 2>&1 &
pids="$pids $!"
addr=""
for _ in $(seq 100); do
	addr=$(sed -n 's/^mmserve: listening on \([^ ]*\) .*/\1/p' "$work/mmserve.log")
	[ -n "$addr" ] && break
	sleep 0.1
done
[ -n "$addr" ] || fail "mmserve did not start"
for w in cur1 cur2; do
	"$cur/mwworker" -addr "$addr" -name "$w" -mem 64 -q 64 -hb 1s >"$work/$w.log" 2>&1 &
	pids="$pids $!"
done

# run runs a command of REV's build, logging to $work/$1.log, and sets
# code to its exit status and ms to its wall time.
run() {
	what=$1
	shift
	t0=$(now_ms)
	code=0
	timeout 10 "$@" >"$work/$what.log" 2>&1 || code=$?
	ms=$(($(now_ms) - t0))
	[ "$ms" -le 1000 ] || fail "$what ($rev) took $ms ms to end, want ≤ 1000"
}

run old-worker "$old/mwworker" -addr "$addr" -name "old-$rev" -mem 64 -q 64 -hb 1s -reconnect 0
grep -q "refused: .*worker \"old-$rev\" speaks protocol version" "$work/mmserve.log" ||
	fail "the current mmserve did not refuse the worker of $rev"
if [ "$code" -eq 0 ]; then
	grep -q "served 0 tasks" "$work/old-worker.log" || fail "the worker of $rev served tasks"
elif ! grep -q "protocol version" "$work/old-worker.log"; then
	fail "the worker of $rev exited $code without naming the protocol version"
fi
echo "compat: worker of $rev refused at join in $ms ms (exit $code): $(grep -m1 "old-$rev" "$work/mmserve.log")"

run old-client "$old/mmserve" -submit -addr "$addr" -kind matmul -n 128 -q 64 -mu 1 -verify=false
[ "$code" -ne 0 ] || fail "the client of $rev was accepted by the current mmserve"
grep -q "protocol version" "$work/old-client.log" || fail "the client of $rev did not name the protocol version"
echo "compat: client of $rev refused at submit in $ms ms: $(grep -m1 "protocol version" "$work/old-client.log")"

for kind in matmul lu; do
	"$cur/mmserve" -submit -addr "$addr" -kind "$kind" -n 256 -q 64 -mu 2 -verify -timeout 60s \
		>"$work/submit-$kind.log" 2>&1 || fail "current $kind submit failed"
	grep -q "verification OK" "$work/submit-$kind.log" || fail "current $kind submit not verified"
	echo "compat: current $kind submit: verification OK"
done
echo "compat: ok ($rev refused, current fleet bit-exact)"

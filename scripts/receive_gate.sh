#!/usr/bin/env bash
# Receive-speed gate. Runs three of the benchmark's workloads, three
# seeds each, untraced: the two receive workloads, idle_air (noise
# hunting, the idle listening a deployed receiver spends almost all its
# time in) and busy_air (back-to-back frames), and arq_soak (ARQ
# transfers, every forward frame modulated, faulted and received
# through the whole PHY). It gates the median realtime_x of each:
#
#   - every bench run must exit 0 (a wrong output fails it too);
#   - the idle_air median must hold real time (>= 1x);
#   - no median may fall more than 20% below the median of the same
#     workload's records in the committed baseline BENCH_receive.jsonl.
#
# realtime_x is scaled to the benchmark's reference host (bench/README.md
# explains the scaling), and every record carries its host envelope:
# nproc, GOMAXPROCS, Go version and commit. Every output line of every
# run goes to BENCH_receive_ci.jsonl. Takes no options; run from
# anywhere in the checkout:
#
#   scripts/receive_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

out=BENCH_receive_ci.jsonl
baseline=BENCH_receive.jsonl
: >"$out"
status=0
for workload in idle_air busy_air arq_soak; do
	for seed in 1 2 3; do
		bash bench/run.sh --workload "$workload" --seed "$seed" --seconds 20 --trace 0 >>"$out" || {
			echo "receive gate: $workload seed $seed exited $?" >&2
			status=1
		}
	done
done

# One verdict line per workload; a line starting "FAIL" fails the gate.
verdict=$(jq -n -r --slurpfile run "$out" --slurpfile base "$baseline" '
	def median(w):
		[.[] | select(.record == "symbee-bench" and .workload == w) | .metrics.realtime_x.value]
		| sort
		| if length == 0 then null else (.[(length - 1) / 2 | floor] + .[length / 2 | floor]) / 2 end;
	def r: . * 1000 | round / 1000;
	("idle_air", "busy_air", "arq_soak") as $w
	| ($run | median($w)) as $got
	| ($base | median($w)) as $ref
	| if $got == null or $ref == null then
		"FAIL \($w): no record (median \($got), baseline median \($ref))"
	  elif $w == "idle_air" and $got < 1 then
		"FAIL \($w): median realtime_x \($got | r) is below real time"
	  elif $got < 0.8 * $ref then
		"FAIL \($w): median realtime_x \($got | r) is more than 20% below the baseline median \($ref | r)"
	  else
		"ok   \($w): median realtime_x \($got | r), baseline median \($ref | r), floor \(0.8 * $ref | r)"
	  end
') || {
	echo "receive gate: cannot read $out or $baseline" >&2
	exit 1
}
echo "$verdict"
if grep -q '^FAIL' <<<"$verdict"; then
	status=1
fi
exit "$status"

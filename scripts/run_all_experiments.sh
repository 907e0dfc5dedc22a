#!/usr/bin/env bash
# Regenerates every table and figure of the paper at harness scale.
# Results land in results/<target>.txt. Override sizes via N_MAIN etc.
set -euo pipefail
cd "$(dirname "$0")/.."
RUN="cargo run --release -q -p quit-bench --bin"
run() { echo "=== $1 ($(date +%H:%M:%S)) ==="; }
run fig3;   $RUN fig3   -- --n "${N_FIG3:-2000000}"    > results/fig3.txt   2>&1
run fig5;   $RUN fig5   -- --n "${N_FIG5:-2000000}"    > results/fig5.txt   2>&1
run fig8;   $RUN fig8   -- --n "${N_MAIN:-2000000}"    > results/fig8.txt   2>&1
run fig9;   $RUN fig9   -- --n "${N_MAIN:-2000000}"    > results/fig9.txt   2>&1
run fig10;  $RUN fig10  -- --n "${N_MAIN:-2000000}"    > results/fig10.txt  2>&1
run fig11;  $RUN fig11  -- --n "${N_FIG11:-500000}"    > results/fig11.txt  2>&1
run fig12;  $RUN fig12  -- --n "${N_MAIN:-2000000}"    > results/fig12.txt  2>&1
run fig13;  $RUN fig13  -- --n "${N_FIG13:-500000}" --threads 8 > results/fig13.txt 2>&1
run fig14;  $RUN fig14  -- --n "${N_FIG14:-1000000}"   > results/fig14.txt  2>&1
run fig15;  $RUN fig15                                  > results/fig15.txt 2>&1
run fig1a;  $RUN fig1a  -- --n "${N_MAIN:-2000000}"    > results/fig1a.txt  2>&1
run table2; $RUN table2 -- --n "${N_MAIN:-2000000}"    > results/table2.txt 2>&1
run table3; $RUN table3 -- --n "${N_MAIN:-2000000}"    > results/table3.txt 2>&1
run sensitivity; $RUN sensitivity -- --n "${N_SENS:-500000}" > results/sensitivity.txt 2>&1
echo "=== done ($(date +%H:%M:%S)) ==="

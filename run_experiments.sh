#!/bin/bash
# Full experiment campaign; logs under results/logs/.
set -u
cd "$(dirname "$0")" || exit 1
mkdir -p results/logs
run() {
  local name=$1; shift
  echo "=== $name ($(date +%H:%M:%S)) ==="
  "$@" > results/logs/$name.log 2>&1
  echo "    done ($(date +%H:%M:%S))"
}
B=./target/release
run fig01 $B/fig01_purchased_accounts
run fig03_05 $B/fig03_05_friend_cdfs
run table1 $B/table1_graphs
run fig09 $B/fig09_request_volume
run fig10 $B/fig10_half_spammers
run fig11 $B/fig11_spam_rejection_rate
run fig12 $B/fig12_legit_rejection_rate
run fig13 $B/fig13_collusion
run fig14 $B/fig14_self_rejection
run fig15 $B/fig15_rejections_on_legit
run fig16 $B/fig16_defense_in_depth
run table2 env REJECTO_SCALE=0.1 $B/table2_scalability
run ablation_seeds $B/ablation_seeds
run ablation_ksweep $B/ablation_ksweep
run ablation_init $B/ablation_init
run ablation_prefetch $B/ablation_prefetch
run ablation_community_seeds env REJECTO_SCALE=0.5 $B/ablation_community_seeds
run ext_compromised env REJECTO_SCALE=0.5 $B/ext_compromised
run fig17 env REJECTO_SCALE=0.5 REJECTO_POINTS=5 $B/fig17_sensitivity_all_graphs
run fig18 env REJECTO_SCALE=0.5 REJECTO_POINTS=5 $B/fig18_resilience_all_graphs
run render_figures $B/render_figures
echo ALL_DONE

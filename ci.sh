#!/usr/bin/env bash
# Local CI gate: formatting, lints (warnings are errors), and the full
# test suite. Run from the repository root before pushing.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (all targets, -D warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

# Panic-path gate: non-test code in the protocol, channel and crypto
# crates may not unwrap/expect (crate-level cfg_attr(not(test), deny(...))
# lints; --lib builds without cfg(test) so only shipping code is checked).
echo "== clippy panic-path gate (core + channel + crypto, non-test) =="
cargo clippy -p vf2boost-core -p vf2-channel -p vf2-crypto --lib -- -D warnings

# Every test binary of the workspace runs exactly once, here, under one
# outer cap, so a liveness bug anywhere — a pool deadlock, a resume hang, an
# admission livelock, a runaway width loop — fails this step instead of
# hanging it. What the suites inside this run guard (each used to be
# re-run as its own capped step after an uncapped first run):
#
# Worker invariance (tests/workers_invariance.rs): real Paillier at
# workers in {1, 2, 4} in every protocol mode — bitwise-identical models,
# and under the sequential protocol equal op counts and bytes
# (column-sharded builds add no merge work); a workers=1 run starts no pool
# thread.
#
# Kill-and-restart chaos (tests/resume.rs): a party is crashed mid-run and
# the job is resumed from checkpoints; the model must come back bitwise
# identical across a deterministic 3-seed matrix (61/71/81) covering every
# sequential/optimistic x raw/reordered/packed mode.
#
# Byzantine conformance (tests/byzantine.rs): scripted protocol deviations
# (replays, phase skips, inadmissible payloads, truncated frames) must
# surface as typed errors — never a panic — an honest re-split is answered
# from the new row lists, and a smaller child that contradicts its parent
# (or a histogram for the sibling the guest derives itself) is that host's
# violation.
#
# Liveness (tests/resume.rs): a host killed *inside* the node loop
# (between a NodeTask and its histogram answer) ends the run as a typed
# PartyPanicked, and the kill-and-restart matrix above is the only way
# back; a silently dead peer is a typed PeerLost inside the liveness
# deadline; a stalled-but-alive link is ridden out inside the supervised
# wait by not waking, with the identical model.
#
# Fixed-limb crypto (vf2-crypto): the Montgomery backend's property tests —
# limb mul/REDC/modpow and the resident operations (enter, multiply, Horner
# step, leave) vs. the num-bigint reference at every dispatch width,
# including carry-edge moduli and modulus-adjacent vectors, the resident
# pack vs. a BigUint Horner reference, and the suite-level pipelines
# (pack/unpack, paired encrypt/unpack) bit-identical under the fixed-limb
# core and the num-bigint fallback — plus the rest of the vf2-crypto suite.
# The host's HAdds and packs run on this core (its ciphers stay resident
# from receipt to pack), so these tests guard the host's hot path too.
#
# Many-party chaos (tests/many_party.rs): the guest's tree loop is
# arrival-order invariant — 8 hosts behind heterogeneous faulty WANs
# (rolling staggered stalls, reordering links, a bandwidth/latency spread)
# train the model the same job trains on instant fault-free links, bit for
# bit, in every protocol mode, while really committing multi-answer
# batches; the baseline flavour commits one batch per layer; and a mid-run
# kill of one of the 8 hosts, restarted with the session resuming, brings
# all nine parties back at the one tree durable at each of them and ends
# bitwise identical.
echo "== cargo test (whole workspace, every binary once, 30 min cap) =="
timeout 1800 cargo test --workspace -q

# The vendored rayon stand-in is a path dependency, not a workspace member,
# so `--workspace` does not reach its tests: the pool's contract (order,
# inline-at-width-1, nested-inline, lowest-index error, panic payload) at
# every width x length the workspace can hand it.
echo "== pool contract gate (vendored rayon, 5 min cap) =="
timeout 300 cargo test -q -p rayon

# Peer-facing admission checks and the guest's own protocol invariants
# must hold in release builds: debug_assert is banned from the wire
# decoder, the semantic validators, both party drivers, the wait they
# share, and the model a decoded file is predicted with.
echo "== no-debug_assert gate (wire/validate/hist_enc/guest/host/peer/model) =="
if grep -n "debug_assert" \
    crates/core/src/wire.rs crates/core/src/validate.rs crates/core/src/hist_enc.rs \
    crates/core/src/guest.rs crates/core/src/host.rs crates/core/src/peer.rs \
    crates/core/src/model.rs; then
  echo "debug_assert found in an admission-critical module" >&2
  exit 1
fi

# One supervised wait: both roles block and notice a dead peer in
# peer.rs::wait and nowhere else. The party drivers name no blocking
# primitive and no silence clock — a receive loop of their own (and the
# polling schedule that paced the old ones) would.
echo "== one-wait gate (guest/host block only through peer.rs) =="
if grep -nE 'recv_timeout\(|recv_ready\(|idle_for\(\)|Backoff' \
    crates/core/src/guest.rs crates/core/src/host.rs; then
  echo "a party driver waits outside peer.rs" >&2
  exit 1
fi
# One layer: keeping a link alive is the link's business (vf2-channel
# re-sends its ack as a keepalive). No item of core sends, filters, admits
# or counts a liveness message, so liveness traffic is named only there.
echo "== one-layer gate (no liveness message in core) =="
if grep -rnE 'Heartbeat|HEARTBEAT_KIND|heartbeat_interval|hb_last|hb_seq' crates/core/src; then
  echo "core names a liveness message or a beacon clock again" >&2
  exit 1
fi

# One recovery story: a lost host ends the run with its checkpoints
# durable, and restarting the session with `.resuming()` is the only way
# back. No loss policy, live rejoin, degraded roster, mid-run rewind, FSM
# quarantine phase or incarnation epoch may come back beside it.
echo "== one-recovery gate (no loss policy, rejoin, degrade or rewind) =="
if grep -rnwE 'HostLossPolicy|on_host_loss|HostSpawner|HostOutcome|AwaitRejoin|Degrade|Rewind|RewindAck|Quarantined|Rejoining|Draining|bump_epoch|party_set|quarantines|rejoins' \
    crates/*/src tests examples; then
  echo "a second recovery path is back" >&2
  exit 1
fi

# One child per split, one place it is subtracted: the guest derives a
# split's larger child from plaintexts it holds (guest.rs::derive_larger →
# DecodedBins::checked_sub). No party subtracts in ciphertext and no host
# keeps a node histogram — EncHistBuilder::subtract and Suite::neg_batch
# survive in hist_enc.rs / vf2-crypto only as the reference that derivation
# is tested against (and a benchmark micro).
echo "== one-child-per-split gate (no ciphertext subtraction or histogram store in the parties) =="
if grep -nE 'NodeHists|\.subtract\(|neg_batch|hist_cache_evictions|hadds_saved' \
    crates/core/src/host.rs crates/core/src/guest.rs crates/core/src/trace.rs; then
  echo "a party subtracts in ciphertext or retains a node histogram again" >&2
  exit 1
fi

# Two storeys, not four: a number is a key-level integer mod n² or a
# Suite-level cipher with an exponent. The EncodedNumber / EncryptedNumber
# method layers between them and the uncounted twin of every raw key op
# must not come back (EncryptedNumber survives as a plain wire struct).
echo "== one-tower gate (no encnum, EncodedNumber or _ctr twin) =="
if grep -rnE 'encnum|EncodedNumber|_raw_ctr|random_rn_ctr|random_rn_crt_ctr|smul_uint' \
    crates/*/src crates/bench crates/crypto/tests tests examples; then
  echo "the crypto number tower grew a storey back" >&2
  exit 1
fi
# ... and nothing a caller or peer hands the suite reaches a panic: the
# shipping lines of suite / encoding / packing (everything before the
# file's first #[cfg(test)]) hold no assertion and no expect.
echo "== no-panic-in-the-tower gate (suite/encoding/packing, non-test) =="
for f in crates/crypto/src/suite.rs crates/crypto/src/encoding.rs crates/crypto/src/packing.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" \
      | grep -E 'assert!|assert_eq!|debug_assert|expect\('; then
    echo "a panic site in the shipping half of $f" >&2
    exit 1
  fi
done

# One timer rule: a frame's retransmission timer starts when its copy
# leaves the gateway pump and runs its direction's one RFC 6298 RTO
# (link.rs::RtoEstimator). The shipping half of link.rs names no per-frame
# deadline and reads initial_rto once, in the estimator's constructor, so
# a timer armed at enqueue cannot come back beside the estimator.
echo "== one-timer gate (link.rs, non-test) =="
LINK_SHIPPING=$(awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/channel/src/link.rs)
if grep -E 'next_at' <<< "$LINK_SHIPPING"; then
  echo "a per-frame retransmission deadline is back in link.rs" >&2
  exit 1
fi
if [ "$(grep -cE '\.initial_rto' <<< "$LINK_SHIPPING")" != 1 ] \
    || ! grep -qE 'let floor = rel\.initial_rto;' <<< "$LINK_SHIPPING"; then
  grep -E '\.initial_rto' <<< "$LINK_SHIPPING" >&2 || true
  echo "link.rs reads initial_rto outside the RTO estimator's constructor" >&2
  exit 1
fi

# One HAdd domain: a host's ciphers enter Montgomery form once on receipt
# and leave once per packed cipher (Suite::{enter, add_resident, pack_gh}).
# The histogram builder and the host name no num-bigint cipher op, so the
# hot path cannot slide back onto heap products and Knuth division.
echo "== one-domain gate (no num-bigint cipher op in hist_enc/host) =="
if grep -nwE 'add_raw|add_assign_same_exp|add_plain_raw|mul_raw|finalize_gh_feature' \
    crates/core/src/hist_enc.rs crates/core/src/host.rs; then
  echo "the host's histogram path names a num-bigint cipher op again" >&2
  exit 1
fi

# The production config carries no chaos hook: fault plans, injected
# crashes and stall knobs live in the test-only ChaosPlan (chaos.rs), which
# nothing reachable from TrainConfig / ProtocolConfig / SessionConfig can
# set. A robustness PR that needs a new failure injects it there.
echo "== no-chaos-in-config gate (config/protocol/session) =="
if grep -nE 'crash_|fault_|stall_' \
    crates/core/src/config.rs crates/core/src/protocol.rs crates/core/src/session.rs; then
  echo "the production config carries a chaos hook" >&2
  exit 1
fi

# One clock: every phase time is a wall-clock span (telemetry.rs). The
# thread-CPU stopwatch, the makespans assembled from it and the two
# vendored crates that existed for them must not come back. The one
# allowed hit is table5_workers.rs's local `modeled_x`, a model printed
# beside the measurement it predicts.
echo "== one-clock gate (no modeled makespan, CPU stopwatch, libc or criterion) =="
if grep -rnE 'modeled_|thread_cpu|CLOCK_THREAD|Stopwatch' crates/*/src crates/bench/benches \
    | grep -v '^crates/bench/benches/table5_workers.rs:'; then
  echo "a modeled makespan or a second clock is back" >&2
  exit 1
fi
if grep -nE 'libc|criterion' Cargo.toml crates/*/Cargo.toml vendor/*/Cargo.toml; then
  echo "a Cargo.toml names libc or criterion" >&2
  exit 1
fi

echo "== cargo bench --no-run =="
cargo bench --workspace --no-run

# Run-report gate: a small end-to-end training must emit a schema-valid
# machine-readable report (vf2boost-run-report/v1), and each party's
# per-phase durations must sum to its busy time and stay within the run's
# wall clock (both are wall time; the 50 ms covers a host still
# applying its last placement when the guest returns).
echo "== run report schema gate (jq) =="
REPORT=$(mktemp /tmp/vf2_run_report.XXXXXX.json)
VF2_KEY_BITS=256 cargo run --release -q -p vf2-bench --bin run_report -- "$REPORT"
jq -e '.schema == "vf2boost-run-report/v1"' "$REPORT" > /dev/null
jq -e '.wall_time_s > 0 and .total_bytes > 0' "$REPORT" > /dev/null
jq -e '.parties | length >= 2' "$REPORT" > /dev/null
jq -e 'all(.parties[]; .phases.busy_s >= 0 and .ops != null and .events != null and .trace.cap > 0)' "$REPORT" > /dev/null
# Backend telemetry: every party names its bignum backend, Montgomery op
# counts are present, and the fixed-limb core actually did the guest's
# modpow work — the one place a silent num-bigint fallback would show.
jq -e 'all(.parties[]; (.crypto_backend | length) > 0 and .ops.modmul != null and .ops.redc != null)' "$REPORT" > /dev/null
jq -e '.parties[0] | (.crypto_backend | startswith("fixed-")) and .ops.modmul > 0 and .ops.redc > .ops.modmul' "$REPORT" > /dev/null
# Robustness telemetry: every party carries a per-peer-link retransmission
# block, and every completed tree has its record.
jq -e 'all(.parties[]; .links | type == "array")' "$REPORT" > /dev/null
jq -e '(.trees | length) > 0' "$REPORT" > /dev/null
# One child per split: the guest derived the larger siblings (and so the
# hosts shipped only the smaller ones), and no host negated a cipher.
jq -e '.parties[0].events.hists_derived > 0 and all(.parties[1:][]; .ops.negs == 0)' "$REPORT" > /dev/null
# busy == sum(phases) per party, and busy <= wall + slack.
jq -e '
  .wall_time_s as $wall |
  all(.parties[]; .phases |
    (((.encrypt_s + .build_hist_enc_s + .build_hist_plain_s
       + .pack_s + .decrypt_find_s + .split_nodes_s) - .busy_s) | fabs) < 1e-5
    and .busy_s <= $wall + 0.05)' "$REPORT" > /dev/null
rm -f "$REPORT"

echo "CI OK"

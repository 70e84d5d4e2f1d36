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

# Public docs link only what they can show: a link to a private item
# renders dead, so any rustdoc warning fails the build.
echo "== cargo doc (workspace, -D warnings) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

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
# (replays, phase skips, inadmissible payloads, truncated frames, the
# retired kinds 8, 13, 15 and 16) must surface as typed errors — never a
# panic — an honest re-split is answered from the new row lists, a gradient
# batch refused for a bad cipher leaves the host's row cursor where it was
# (the honest re-send trains the budget-0 split table), and a smaller child
# that contradicts its parent (or a histogram for the sibling the guest
# derives itself) is that host's violation.
#
# Liveness (tests/resume.rs): a host crashed inside its pool at a tree's
# first histogram accumulation (after the previous tree's TreeDone, before
# any answer of this tree) ends the run as a typed PartyPanicked that
# carries the host's telemetry and flight record, and the kill-and-restart
# matrix above is the only way back; a silently dead peer is a typed PeerLost inside the liveness
# deadline; a stalled-but-alive link is ridden out inside the supervised
# wait by not waking, with the identical model.
#
# Fixed-limb crypto (vf2-crypto): the Montgomery core is the one engine of
# every Paillier key (64 to 4096 bits; a wider request is a typed
# KeyGeneration error). Its property tests check limb mul/REDC/modpow and
# the resident operations (enter, multiply, Horner step, leave) against
# plain BigUint formulas at every dispatch width up to 128 limbs, including
# carry-edge moduli and modulus-adjacent vectors, the resident pack against
# a BigUint Horner reference, encryption, decryption and SMul against their
# textbook formulas, and the suite-level pipelines (pack/unpack, paired
# encrypt/unpack) recover their plaintexts — plus the rest of the
# vf2-crypto suite.
# The host's HAdds and packs run on this core (its ciphers stay resident
# from receipt to pack), so these tests guard the host's hot path too.
#
# Histogram arena (crates/core/src/hist_enc.rs): add_rows resolves the
# suite's kind once per walk, so
# add_rows_reports_the_same_typed_errors_as_add pins every typed error the
# per-cipher add reports (a hostile exponent, a cipher of the other kind in
# either stream, a short stream, a narrow builder) under Paillier and the
# mock, naive and re-ordered, at widths 1 and 3. The store is typed by the
# first accepted add: a_refused_first_add_fixes_no_kind pins that a refused
# first add (a mock cipher off the jitter window, a stream too short for
# its rows) leaves a fresh builder, through add and add_rows, which then
# takes a Paillier cipher; the mock half of
# add_rows_equals_the_add_loop_cipher_for_cipher_at_every_width reads the
# plain workspaces back through finalize_feature and subtract.
#
# Four-byte row-major entries (crates/core/src/rows.rs): a party wider than
# wire::limits::MAX_FEATURES (2^16) columns is InvalidInput before anything
# runs (train.rs's invalid_input_is_an_error_not_a_panic, host and guest),
# and the_widest_table_indexes_its_last_column pins that 2^16 columns index
# their last as feature 65 535. A const assertion in rows.rs keeps an entry
# at 4 bytes.
#
# Blaster pipelining (tests/wan_and_traffic.rs): the default protocol
# streams a 1 250-row tree's gradients in 128-row batches — exactly nine
# more guest messages than one bulk frame, and the bulk run's model.
#
# The guest's core (crates/core/src/grow.rs): the optimistic protocol's
# decisions and the guest's one admission are driven with no link —
# a_resplit_forgets_the_retained_histograms_below_it_and_derives_them_anew
# reads the tasks a rollback and re-split issue off the core's actions;
# guest_admits_only_answers_to_issued_requests,
# guest_placement_accounting_allows_rollback_reissues and
# guest_begin_tree_voids_previous_bookkeeping pin the verdicts the one
# per-host ledger gives; guest_handshake_order_is_enforced,
# guest_passes_answers_and_rejects_driver_kinds,
# feature_meta_bounds_are_checked,
# a_placement_past_the_heap_is_inadmissible_at_the_guest and the three
# histogram-shape tests (raw, packed, paired) pin every check before it;
# a_histograms_ciphers_are_judged_before_its_task pins the gradient path's
# cipher checks (grad_path.rs) before all of them;
# and a_histogram_for_a_superseded_epoch_is_stale_once_and_never_charged
# pins an answer to a task a rollback superseded. byzantine.rs's
# a_host_without_features_has_its_histograms_checked_like_any_other and
# a_refused_answer_changes_nothing_at_the_guest drive the same admission
# over a link. The scripted parties refuse a config train_federated
# refuses (byzantine.rs's scripted_parties_refuse_an_invalid_config).
#
# The host's core (crates/core/src/serve.rs): every admission verdict of the
# host is driven with no link — host_rejects_phase_skips_and_replays and
# packed_batches_drive_the_same_row_stream_contract pin the row cursor,
# node_and_feature_indices_are_bounded the index checks that precede the
# phase, a_batchs_ciphers_are_judged_before_its_rows the gradient path's
# cipher checks before those, placements_that_desync_the_row_lists_are_fatal the fatal verdicts
# (the last bin, which indexed past the cut points, among them),
# a_replaced_placement_retires_the_tasks_queued_below_it the retirement
# under a re-split, and a_parked_histogram_ships_only_at_its_epoch_in_its_tree
# the in-flight decision, across a tree boundary too.
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

# Peer-facing admission checks and the guest's own protocol invariants
# must hold in release builds: debug_assert is banned from the wire
# decoder, the gradient path's cipher and shape checks, both party drivers
# and both cores, the wait they share, and the model a decoded file is
# predicted with.
echo "== no-debug_assert gate (wire/grad_path/hist_enc/guest/grow/host/serve/peer/model) =="
if grep -n "debug_assert" \
    crates/core/src/wire.rs crates/core/src/grad_path.rs crates/core/src/hist_enc.rs \
    crates/core/src/guest.rs crates/core/src/grow.rs crates/core/src/host.rs \
    crates/core/src/serve.rs crates/core/src/peer.rs crates/core/src/model.rs; then
  echo "debug_assert found in an admission-critical module" >&2
  exit 1
fi

# No impossible route: a state the code believes unreachable is either
# made unrepresentable (grow_tree records each row's weight where its node
# becomes a leaf) or given a documented answer (an unvalidated tree predicts
# 0.0 past an absent node), never a debug-only assertion that release builds
# silently run past.
echo "== no-impossible-route gate (no debug_assert!(false in any crate) =="
if grep -rnF 'debug_assert!(false' crates/*/src; then
  echo "a debug-only impossible route is back" >&2
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

# One core per role, one admission and one ledger each: the guest's
# admission and tree growth (grow.rs) and the host's admission and task
# queue (serve.rs) are pure cores — their shipping halves name no link,
# cipher suite, clock or trace, so every decision of either role is
# testable with no thread. grow.rs is the only record of what each host
# owes: the shell (guest.rs) keeps no second ledger and no driver hook that
# fed one. Each core makes every check of its role once, in one pure step
# from the decoded message, the run's gradient path judging the ciphers
# first: the phase machines of either role (HostFsm, GuestFsm /
# GuestPhase), the per-message validators they replaced, the shells'
# re-checks, and the leaf notice no host read, must not come back.
echo "== one-core gate (grow.rs and serve.rs pure; no second ledger, admission or histogram query) =="
for f in crates/core/src/grow.rs crates/core/src/serve.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" \
      | grep -E 'Peer|peer::|Endpoint|Suite|Instant|telemetry|TraceRing'; then
    echo "a pure core ($f) names a link, the suite, a clock or telemetry" >&2
    exit 1
  fi
done
if grep -nE 'tasked|seen_hists|placements_due|task_sent|expect_placement|begin_tree|hist_is_fresh' \
    crates/core/src/guest.rs; then
  echo "a second per-host ledger or its driver hooks are back" >&2
  exit 1
fi
if grep -rnE 'HostFsm|check_host_inbound|state_invariant|ensure_tree|with_state|OutOfOrderGradients|NodeLeaf|GuestFsm|GuestPhase|check_guest_inbound|check_node_index' \
    crates/core/src; then
  echo "a second admission of either role, its re-checks or the leaf notice are back" >&2
  exit 1
fi
# A built histogram waits in one place, the host core's parked list, as its
# builders, and one rule releases it; the shell packs it in its one ship.
# The two queries that bracketed the pack, a packed payload held in the
# core and a second pack site in the shell must not come back.
if grep -rnE 'still_wanted|ship_or_hold' crates/core/src; then
  echo "a second query on a built histogram is back" >&2
  exit 1
fi
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/core/src/serve.rs \
    | grep -E 'HistPayload'; then
  echo "the host core holds a packed histogram" >&2
  exit 1
fi
HOST_PACKS=$(awk '/#\[cfg\(test\)\]/{exit} {print}' crates/core/src/host.rs | grep -c '\.payload(' || true)
if [ "$HOST_PACKS" -gt 1 ]; then
  echo "host.rs packs in $HOST_PACKS places, not in its one ship" >&2
  exit 1
fi

# One gradient path: the run's forward and return forms are decided once,
# in grad_path.rs (GradPath::of), which alone branches on them — the
# guest's encryption and decode, the host's payload build, both roles'
# cipher and shape admission, the derived bins' limits. The shipping halves
# of the shells and cores name neither the toggle nor the plan that pick
# the path, nor build a wire form of their own.
echo "== one-path gate (guest/host/grow/serve name no path toggle, plan or wire form) =="
for f in crates/core/src/guest.rs crates/core/src/host.rs crates/core/src/grow.rs crates/core/src/serve.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" \
      | grep -E 'pack_histograms|gh_plan|GhPlan|HistPayload::'; then
    echo "$f re-derives or branches on the gradient path outside grad_path.rs" >&2
    exit 1
  fi
done

# One table per party: the parties read the caller's tables where they lie
# (train.rs runs them scoped; run_host / run_guest take &Dataset), each
# keeps one binned form — its row-major table with the cut points — and a
# host's mock streams hold plain values. A per-party dataset copy, a
# column-major binned copy beside the row-major one, or a stream of
# resident-cipher enums must not come back (tests/memory.rs measures the
# heap they cost). Nor, in rows.rs, a whole-party column-major binning on the
# way to the row-major form (RowMajorBins::bin codes the raw columns where
# they lie) or a retained row list per node (NodeRows is one permutation).
echo "== one-table gate (no dataset copy, one binned form, typed host streams, one row permutation) =="
for f in crates/core/src/train.rs crates/core/src/host.rs crates/core/src/guest.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" \
      | grep -E 'Arc<Dataset>|Arc::new\((data|guest)\b|\b(data|guest)\.clone\(\)|hosts\.(clone|to_vec)\(\)|Dataset::clone'; then
    echo "a party copies its dataset again ($f)" >&2
    exit 1
  fi
done
for f in crates/core/src/serve.rs crates/core/src/grow.rs crates/core/src/host.rs crates/core/src/guest.rs; do
  if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' "$f" | grep -E 'BinnedDataset'; then
    echo "a party keeps a column-major binned form beside its row-major one ($f)" >&2
    exit 1
  fi
done
if grep -nE 'Vec<ResidentCiphertext>' crates/core/src/serve.rs; then
  echo "the host's streams are untyped resident-cipher vectors again" >&2
  exit 1
fi
if awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/core/src/rows.rs \
    | grep -E 'Option<Vec<u32>>|BinnedDataset::bin\('; then
  echo "rows.rs bins a whole party column-major again, or keeps a row list per node" >&2
  exit 1
fi

# One child per split, one place it is subtracted: the guest derives a
# split's larger child from plaintexts it holds (grow.rs::derive_larger →
# DecodedBins::checked_sub). No party subtracts in ciphertext and no host
# keeps a node histogram — EncHistBuilder::subtract and Suite::neg_batch
# survive in hist_enc.rs / vf2-crypto only as the reference that derivation
# is tested against (and a benchmark micro).
echo "== one-child-per-split gate (no ciphertext subtraction or histogram store in the parties) =="
if grep -nE 'NodeHists|\.subtract\(|neg_batch|hist_cache_evictions|hadds_saved' \
    crates/core/src/host.rs crates/core/src/serve.rs crates/core/src/guest.rs \
    crates/core/src/grow.rs crates/core/src/trace.rs; then
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
# deadline, and outside the estimator's impl it names the RTO floor only
# where it defines it, so a timer armed at enqueue cannot come back beside
# the estimator.
echo "== one-timer gate (link.rs, non-test) =="
LINK_SHIPPING=$(awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/channel/src/link.rs)
if grep -E 'next_at' <<< "$LINK_SHIPPING"; then
  echo "a per-frame retransmission deadline is back in link.rs" >&2
  exit 1
fi
FLOOR_OUTSIDE=$(awk '/#\[cfg\(test\)\]/{exit} /^impl RtoEstimator \{/{e=1} !e&&!/^ *\/\//{print FILENAME ":" FNR ": " $0} e&&/^\}/{e=0}' \
  crates/channel/src/link.rs | grep -E 'RTO_FLOOR' || true)
if [ "$(grep -c . <<< "$FLOOR_OUTSIDE")" != 1 ] \
    || ! grep -qE ': const RTO_FLOOR: Duration = ' <<< "$FLOOR_OUTSIDE"; then
  echo "$FLOOR_OUTSIDE" >&2
  echo "link.rs reads the RTO floor outside the RTO estimator" >&2
  exit 1
fi
# The link tunes itself: its RTO floor, ceiling, backoff, jitter and ack
# size are link.rs's private constants, so no config, public type or
# config error carries a second set of them.
echo "== one-link-tuning gate (no reliability config) =="
if grep -rnE 'ReliabilityConfig|InvalidReliability|initial_rto|max_rto' \
    crates/*/src src tests examples; then
  echo "a link-tuning knob is back" >&2
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

# One bignum engine: every Paillier key runs on the fixed-limb Montgomery
# core, and a resident cipher has one form, its Montgomery limbs. The
# backend switch, the key rebuilt on the other engine and the resident's
# plain-residue form must not come back.
echo "== one-engine gate (no second bignum backend) =="
if grep -rnE 'CryptoBackend|with_backend|NumBigint|as_plain|Repr::Plain' \
    --include='*.rs' crates/*/src crates/*/tests src tests examples; then
  echo "a second bignum backend is back" >&2
  exit 1
fi

# One fan-out: each party's loops fan out through `vf2boost-core`'s
# `pool::Pool`, one order-preserving map over `std::thread::scope` that the
# caller names explicitly (its contract runs in `pool::tests` above). The
# vendored rayon emulation it replaced — an iterator API over a pool read
# from a hidden thread-local — must not come back as a dependency or a use.
echo "== one-pool gate (no rayon in a manifest or a source file) =="
if grep -rn --include='Cargo.toml' --exclude-dir=target rayon . \
  || grep -rn --include='*.rs' rayon crates src tests examples; then
  echo "rayon is back" >&2
  exit 1
fi

# One arena: a histogram builder holds every bin of every feature in one
# flat arena (EncHistBuilder's offsets / store / rows). The per-bin
# accumulator types it replaced — a Vec of per-bin vectors, each bin's
# workspaces behind its own enum — must not come back.
echo "== one-arena gate (no per-bin accumulator types in core) =="
if grep -rnwE 'BinAcc|struct Bin' crates/core/src; then
  echo "a per-bin histogram accumulator is back in core" >&2
  exit 1
fi

# Typed workspaces: the arena's store is typed by the suite kind of its
# first accepted add, and the mock's workspaces are plain values with their
# occupancy (Workspaces::Plain, folded through PlainNumber::hadd), 24 bytes
# where a resident-cipher slot takes 32. They must not go back to
# Option<ResidentCiphertext> slots, the Paillier store's element alone.
echo "== typed-store gate (the mock's workspaces are plain values) =="
HIST_SHIPPING=$(awk '/#\[cfg\(test\)\]/{exit} {print FILENAME ":" FNR ": " $0}' crates/core/src/hist_enc.rs)
if ! grep -qE 'Plain\(Vec<Option<PlainNumber>>\),' <<< "$HIST_SHIPPING" \
    || ! grep -qE 'impl Workspace for Option<PlainNumber> \{' <<< "$HIST_SHIPPING" \
    || grep -E ':[0-9]+: +(slots|store): .*Option<ResidentCiphertext>' <<< "$HIST_SHIPPING"; then
  echo "the mock's histogram workspaces are resident-cipher slots again" >&2
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
# Backend telemetry: every party names its backend (the key's limb width,
# or plain for the mock), Montgomery op counts are present, and the
# fixed-limb core actually did the guest's modpow work.
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

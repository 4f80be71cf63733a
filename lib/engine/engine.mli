(** Session-multiplexing agreement engine: many concurrent protocol
    instances over one transport.

    Every entry point below runs [K] independent {e sessions} — each an
    ['a Net.Proto.t] instance executed by the same [n] parties — inside one
    round-driven scheduler. Each engine round, every live session advances by
    exactly one of its own rounds, and all sessions' traffic between an
    ordered pair of parties is coalesced into a single {!Wire.Frame}, so the
    per-frame transport cost is paid once per pair per round regardless of
    how many sessions are live. This is how the deployments from the paper's
    introduction (blockchain oracles, transaction ordering) amortize
    transport cost across thousands of concurrent agreement instances.

    Sessions are admitted from an arrival queue when their [start_round]
    arrives, run at independent round offsets (a session admitted at engine
    round [a] executes its own round [r] during engine round [a + r - 1]),
    and retire as they terminate without perturbing the others.

    Per-session semantics are {e exactly} those of a standalone
    {!Net.Sim.run}: each session has its own adversary instance, which sees
    the session-local round number and only that session's prescribed
    messages, and per-session metrics count the raw payload bytes — so a
    multiplexed session's outputs and metrics are bit-identical to the same
    session run sequentially (asserted by [test/test_engine.ml]). Coalescing
    is accounted separately, at the transport layer. *)

type 'a spec = {
  sid : int;  (** Session id carried in frames; distinct, non-negative. *)
  start_round : int;  (** Engine round (0-based) at which to admit. *)
  protocol : Net.Ctx.t -> 'a Net.Proto.t;
  adversary : Net.Adversary.t;
      (** Supply a fresh instance per session — strategies carry PRNG
          state. *)
  setup : [ `Plain | `Authenticated ];
      (** Which context constructor the session's parties get:
          {!Net.Ctx.make} (t < n/3) or {!Net.Ctx.make_authenticated}
          (t < n/2, for protocols on a cryptographic setup such as the
          [Auth] library's). Chosen per session. *)
}

val session :
  ?start_round:int ->
  ?adversary:Net.Adversary.t ->
  ?setup:[ `Plain | `Authenticated ] ->
  sid:int ->
  (Net.Ctx.t -> 'a Net.Proto.t) ->
  'a spec
(** Spec builder; [start_round] defaults to 0, [adversary] to
    {!Net.Adversary.passive}, [setup] to [`Plain]. *)

type 'a session_result = {
  r_sid : int;
  r_outputs : 'a option array;
      (** Per party, as in {!Net.Sim.outcome}: [Some] once the party's
          instance terminated. *)
  r_metrics : Net.Metrics.t;
      (** Session-local rounds, honest bits, per-label bits — identical to a
          sequential run of the same session. *)
  r_admitted_at : int;  (** Engine round at which the session was admitted. *)
  r_retired_at : int;
      (** Engine round of the session's last step ([= r_admitted_at] for
          zero-round sessions). *)
}

type aggregate = {
  engine_rounds : int;
  sessions_completed : int;
  peak_live : int;  (** Maximum number of concurrently live sessions. *)
  frames_sent : int;  (** Coalesced frames: one per ordered pair per round. *)
  naive_frames : int;
      (** Frames a frame-per-session transport would have sent. *)
  frames_saved : int;  (** [naive_frames - frames_sent]. *)
  frame_bytes : int;
      (** Encoded {!Wire.Frame} bytes on the wire — includes session-id tags
          and, in adversarial simulator runs, byzantine payloads. *)
  payload_bytes : int;  (** Raw session payload bytes inside the frames. *)
  honest_bits_total : int;  (** Sum of the sessions' honest bits. *)
}

type 'a outcome = {
  sessions : 'a session_result list;  (** In input order. *)
  aggregate : aggregate;
}

exception Round_limit_exceeded of int
(** Engine-round tripwire, as in {!Net.Sim}. *)

val default_max_rounds : int

val run_core :
  ?max_rounds:int ->
  ?domains:int ->
  ?trace:Net.Trace.t ->
  ?telemetry:Telemetry.t ->
  ?obs:Obs.t ->
  ?on_round:(round:int -> live:int -> unit) ->
  transport:Net.Transport.t ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** The round-driven scheduler behind {!run_sim} and {!run_poll},
    parameterized over the byte transport. Each engine round the core
    computes every live session's sends (the simulator semantics, adversary
    PRNG order included), coalesces them into one entry list per ordered
    pair, accounts the frame bytes via {!Wire.Frame.encoded_size}, hands the
    entry matrix to {!Net.Transport.exchange}, and delivers from what came
    back. A [direct] transport (the loopback) additionally licenses the
    fused schedule: send and delivery run as one parallel phase — a single
    pool barrier per engine round. Any transport that moves the frames
    faithfully yields bit-identical outputs, per-session metrics, aggregate
    ledger and telemetry — the property the cross-backend tests pin down.
    Every per-round structure (live set, step captures, bundle matrix,
    delivery index) is preallocated at session capacity and reused, so
    steady-state rounds allocate only per-session transients. Raises like
    {!run_sim}; transport failures propagate as the transport's own
    exceptions.

    [obs] attaches a {!Obs} registry. Deterministic tier (recorded from the
    sequential sections only, so identical across transports and domain
    counts): histograms [engine/frame_bytes] (every coalesced frame's
    encoded size — the histogram sum equals the ledger's [frame_bytes]) and
    [engine/session_rounds] (session lifetimes at retirement), counters
    [engine/rounds], [engine/frames], [engine/sessions], gauges
    [engine/live] and [engine/peak_live]. Sampled tier:
    [engine/round_wall_ns], the wall-clock engine-round latency. [on_round]
    runs after each engine round's retirement with the round number and
    remaining live count — the hook the periodic {!Obs.Sampler} rides. *)

val run_sim :
  ?max_rounds:int ->
  ?domains:int ->
  ?trace:Net.Trace.t ->
  ?telemetry:Telemetry.t ->
  ?obs:Obs.t ->
  ?sampler:Obs.Sampler.t ->
  ?sample_every:int ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** Execute every session in the deterministic lock-step simulator, with the
    per-session rushing adversaries controlling the corrupted parties.
    [trace] records every sent message with its session id. [telemetry]
    attaches a recorder: each session records spans and probes under its
    [sid] at session-local rounds completed, messages additionally carry the
    engine round as their timeline round, and the live-session count is
    recorded once per engine round — summing a session's span bits
    reproduces that session's [Metrics.honest_bits] exactly.

    [domains] (default 1) shards the live sessions across the shared {!Pool}
    at every engine-round barrier. Sequential-equals-parallel bit-identity is
    a hard invariant: each session steps on one domain with its own states,
    adversary PRNG, [Metrics.t] and telemetry shard, while everything shared
    — admission, traces, frame assembly, the aggregate ledger — stays on the
    calling domain in admission order, and the telemetry shards are merged
    back in session-index order ({!Telemetry.merge}); outputs, per-session
    metrics, the aggregate ledger and the telemetry JSONL are byte-identical
    for every domain count (asserted by [test/test_multicore.ml]).

    [obs] instruments the run (see {!run_core}). [sampler] records an
    {!Obs.Sampler} snapshot every [sample_every] (default 16) engine
    rounds.

    Raises [Invalid_argument] on inconsistent parameters (corrupt-array
    size, more corruptions than [t], duplicate or negative sids, negative
    start rounds, empty session list, [domains < 1]). *)

val run_poll :
  ?max_rounds:int ->
  ?domains:int ->
  ?trace:Net.Trace.t ->
  ?telemetry:Telemetry.t ->
  ?obs:Obs.t ->
  ?sampler:Obs.Sampler.t ->
  ?sample_every:int ->
  ?control:(Unix.file_descr * (unit -> unit)) ->
  ?outbuf:int ->
  n:int ->
  t:int ->
  corrupt:bool array ->
  'a spec list ->
  'a outcome
(** Execute every session over the single-process event-driven socket mesh
    ({!Net_poll}): nonblocking fds, one [select] loop, bounded per-connection
    outbound rings with explicit backpressure. Full simulator semantics —
    per-session adversaries, traces, telemetry — with the round's bytes
    actually moving through sockets; outputs, per-session metrics, the
    aggregate ledger and the telemetry JSONL are byte-identical to
    {!run_sim} on the same inputs (asserted by [test/test_poll.ml]).
    [outbuf] is the per-connection ring capacity (default 64 KiB) — shrink
    it to exercise parking. The mesh is torn down on every exit path.

    [obs] additionally installs {!Obs.poll_sink} on the mesh, so select
    waits and write stalls land in the sampled-tier histograms. [sampler]
    snapshots every [sample_every] (default 16) engine rounds, with the
    mesh's {!Net_poll.stats} attached. [control] is forwarded to
    {!Net_poll.set_control} — pass [(Obs.Endpoint.fd ep, fun () ->
    Obs.Endpoint.service ep)] to serve the live stats endpoint from inside
    the select loop. *)

val honest_outputs : corrupt:bool array -> 'a session_result -> 'a list
(** Honest parties' outputs of one session, in party order; raises [Failure]
    if an honest party did not terminate (cannot happen unless [max_rounds]
    was abused). *)

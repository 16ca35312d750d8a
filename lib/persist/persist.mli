(** Persistent JIT profiles: warmup snapshots with fingerprint-validated
    replay.

    A profile ([.lprof]) captures what a run learned — per-method hotness
    and tier state, quickened inline-cache sites (receivers recorded
    symbolically, by class name, never by cid), speculative-devirt
    dependencies, the blacklist, and the expected installed-code IR
    fingerprint per method — so the next process can skip the warmup.
    Replay resolves every symbol against the freshly loaded classfile and
    silently drops whatever no longer matches; a corrupt, truncated or
    version-bumped file degrades to a cold start with one stderr
    diagnostic, never a crash. *)

(** {1 Snapshot model} *)

type profile

val version : int
(** Current snapshot format version (the [%lprof N] header). *)

val method_count : profile -> int
val site_count : profile -> int

val capture : Vm.Types.runtime -> profile
(** Snapshot the runtime's warmup state: every bytecode method with
    activity (calls/backedges, a non-cold tier, or a recorded
    fingerprint), every non-empty IC site, and the devirt dependency
    sets.  Tables are sorted by mid so the dump is byte-diff-stable. *)

val to_string : profile -> string

val of_string : ?src:string -> string -> (profile, string) result
(** Parse a snapshot.  Unknown record tags are skipped (schema
    evolution); a bad header, malformed known record, wrong version or
    missing/mismatched trailer count is an [Error]. *)

val save : Vm.Types.runtime -> string -> unit
(** [capture] + write to a file (replacing it). *)

val load : string -> profile option
(** Read and parse a snapshot file.  On any failure — unreadable file,
    corrupt or truncated contents, version mismatch — prints a single
    cold-start diagnostic on stderr and returns [None]. *)

(** {1 Replay} *)

type replay_stats = {
  mutable rs_methods : int;  (** method records resolved and seeded *)
  mutable rs_sites : int;  (** IC sites pre-quickened *)
  mutable rs_enqueued : int;  (** warm compiles enqueued/promoted *)
  mutable rs_blacklisted : int;  (** blacklist entries restored *)
  mutable rs_dropped : int;  (** stale records dropped *)
}

val replay : ?pool:Bgjit.t -> Vm.Types.runtime -> profile -> replay_stats
(** Seed a freshly booted runtime from a snapshot: resolve method symbols
    (dropping renamed/vanished/re-signatured ones), seed hotness
    counters, restore the blacklist, pre-quicken IC sites whose bytecode
    still matches, then batch-enqueue formerly-compiled methods — through
    [pool] when background compilation is on, synchronously through the
    tier-promotion hook otherwise.  Each warm compile's IR fingerprint is
    checked against the recorded one via {!on_fingerprint}. *)

val replay_file : ?pool:Bgjit.t -> Vm.Types.runtime -> string -> replay_stats option
(** [load] + [replay]; [None] (cold start) when the file does not load. *)

(** {1 Collection and validation hooks} *)

val collect : unit -> unit
(** Start recording compile fingerprints for a later [capture]. *)

val collecting : unit -> bool

val active : unit -> bool
(** True when the compile pipeline should report fingerprints here:
    either collecting for a writer, or warm-compile validations are
    still pending after a replay. *)

val on_fingerprint : mid:int -> meth:string -> fp:string -> unit
(** Called by the compile pipeline after staging.  While collecting,
    records [fp] as the method's expected fingerprint.  After a replay,
    consumes the method's pending expectation and emits an
    [Ir_fingerprint] event whose cause is [Profile_replay] (match) or
    [Profile_stale] (mismatch).  Thread-safe; called from background JIT
    workers. *)

val warm_matches : unit -> int
(** Warm compiles whose fingerprint matched the snapshot. *)

val warm_stale : unit -> int
(** Warm compiles whose fingerprint differed from the snapshot. *)

val replayed_methods : unit -> int
(** Method records resolved by the last [replay]. *)

val register_writer : Vm.Types.runtime -> string -> unit
(** Register a profile writer for [path] in the consolidated
    [Obs.add_flusher] registry and arm the single exit-time flush; each
    flush rewrites the file, so the final one wins.  Idempotent per
    path.  Write failures are reported on stderr, never raised. *)

val reset : unit -> unit
(** Drop all collector/replayer state (tests). *)

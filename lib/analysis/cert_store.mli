(** Persistent, content-addressed store of equilibrium certificates.

    Every exhaustive PoA sweep decides thousands of (graph, concept, α,
    budget) instances; before this store each [bncg poa] / bench run
    re-decided all of them from scratch, and a killed run lost
    everything.  The store memoises each decision — the {!Verdict.t}
    plus the graph's social-cost ratio ρ — on disk, keyed by the
    content address [(canonical graph6, concept name, α, budget)], so

    - a repeated sweep answers from cache instead of re-checking, and
    - an interrupted sweep resumes from whatever its journal reached.

    On-disk format: a directory of append-only JSONL journals, one per
    writing run ([journal-<k>.jsonl]).  Each line is one certificate
    (kind ["cert"]) or one memoised canonicalisation (kind ["canon"],
    mapping a labelled adjacency key to its canonical graph6 so warm
    runs skip the canonical-form search too).  Opening a store loads
    every journal; a truncated final line — the signature of a killed
    run — is skipped, which is exactly what makes resume safe.  Records
    are only ever appended, never rewritten, so the journals double as a
    complete audit log of what was certified when.

    Writes must come from a single domain (the sweep engine's
    coordinator); lookups are reads of a private hashtable and follow
    the same rule.  The JSONL values themselves round-trip floats
    bit-exactly ({!Json.float_repr}), which is what lets a resumed sweep
    reproduce an uninterrupted run's [worst] result bit for bit. *)

type t

type entry = {
  verdict : Verdict.t;  (** the certified decision *)
  rho : float;  (** social cost ratio of the graph at the keyed α *)
}

val open_store : string -> t
(** [open_store dir] creates [dir] if needed, loads every [*.jsonl]
    journal in it (skipping unparsable lines), and prepares a fresh
    append-only journal for this run.  The journal file is created
    lazily on the first {!record}, so read-only runs leave no trace,
    and exclusively: if another store on the same directory has taken
    the next journal index by then, this one moves on to a later index,
    so two writers never share a journal. *)

val close : t -> unit
(** Flushes and closes this run's journal, if one was opened. *)

val dir : t -> string

val cert_count : t -> int
(** Number of certificates currently in memory (loaded + recorded). *)

val cert_key :
  ?game:string ->
  concept:string ->
  alpha:float ->
  budget:int option ->
  canon_g6:string ->
  unit ->
  string
(** The content address: an MD5 hex digest of
    [canonical graph6 | concept name | hex α | budget].  α enters in
    hexadecimal float notation so distinct doubles never collide and
    equal doubles always agree.  [?game] is the {!Game_sig.GAME}
    canonical name and defaults to ["bilateral"], which keeps the
    historical key string — journals written before games were
    first-class still hit the cache; any other game prefixes its name,
    so certificates from different games can never collide. *)

val find : t -> key:string -> entry option

val record :
  ?game:string ->
  t ->
  key:string ->
  canon_g6:string ->
  concept:string ->
  alpha:float ->
  budget:int option ->
  entry ->
  unit
(** Adds the entry under [key], appends one JSONL line to this run's
    journal, and flushes — the store is never more than one partial line
    behind the computation, which bounds what a kill can lose. *)

val find_canon : t -> Graph.t -> string option
(** Memoised canonical graph6 of a labelled graph, if this store has
    seen it. *)

val record_canon : t -> Graph.t -> string -> unit
(** Journals [labelled adjacency key -> canonical graph6]. *)

val canonical_g6 : t -> Graph.t -> string
(** {!find_canon}, computing ({!Encode.canonical_graph6}) and
    {!record_canon}-ing on a miss. *)

val find_family : t -> string -> Graph.t list option
(** Memoised candidate family (e.g. ["connected/6"]): the exact labelled
    graphs in their original enumeration order, decoded from graph6.
    Caching the family matters as much as caching verdicts — at small
    sizes enumerating all connected graphs costs more than checking
    them. *)

val record_family : t -> string -> Graph.t list -> unit
(** Journals a candidate family as one JSONL line of graph6 strings,
    preserving enumeration order (the order the sweep fold replays). *)

val absorb : t -> string -> int
(** [absorb t src] folds every journal under the store directory [src]
    into [t]: records [t] has not seen are loaded and re-journaled (as
    their original raw lines) into [t]'s own journal, so [t]'s
    directory becomes self-contained; duplicates are skipped.  Returns
    the number of records absorbed.  This is how [bncg merge] collects
    the per-shard certificate journals of a sharded sweep into the
    coordinator's store — certificates are content-addressed, so
    absorption order cannot change any later lookup.  A missing or
    empty [src] absorbs nothing.
    @raise Invalid_argument if [src] is [t]'s own directory. *)

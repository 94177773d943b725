(** The game abstraction behind the checker / sweep / fuzz stack.

    Two module types:

    - {!METRIC} is the per-agent cost kernel the checkers are
      functorized over; the bilateral and the generalized game
      instantiate the same single-edge checkers with different
      metrics.  It packages exactly what the checker algorithms
      consume: cost assembly from the graph's distance structures (the
      Bitgraph and {!Dist_oracle} fast paths), the strict-improvement
      order, and the pruning theory (gain thresholds, net-edge caps,
      coalition eligibility) whose soundness conditions are spelled
      out below.

    - {!GAME} is a whole playable game: a state (a graph, or a graph
      with edge ownership), a concept vocabulary, an optimised checker,
      a definition-literal reference oracle, and the hooks the generic
      sweep/fuzz engines need (relabelling, witness validation, the
      social-cost ratio, per-concept size policy for fuzz campaigns).

    {2 METRIC laws}

    Any metric must satisfy, for the checkers to remain sound:

    - [strictly_less] is a strict partial order consistent with "this
      agent is better off": flipping a move on an oracle and comparing
      with [of_oracle] must rank exactly the states the game ranks.
    - [of_bits], [of_oracle] and [of_graph] agree whenever they price
      the same agent in the same graph (a {!Bitgraph}, a
      {!Dist_oracle} and a {!Graph} of the same edge set), connected
      or not.
    - [gain_improves ~alpha gain] is monotone in [gain] and answers
      "can a distance-sum decrease of [gain] outweigh the price of one
      extra edge?".  The checkers use it only to prune — every
      surviving move is priced exactly before it is reported — so a
      metric answering [false] for a gain that the exact evaluation
      would accept loses witnesses (unsound); answering [true] too
      often only costs time.  A metric whose cost is not a function of
      the distance sum (e.g. [sum f(d)] for convex [f]) answers [true]
      always.
    - [net_edge_cap] upper-bounds how many net extra edges an agent can
      ever profitably buy in one move; [could_join_coalition] must be
      [true] for every agent that some coalition move strictly
      improves.  Both may be trivially permissive ([size] and
      [fun _ -> true]) at the cost of search time.

    {2 GAME laws}

    The property bank in [Game_laws] (lib/testkit) checks every
    instance against these:

    - every [Unstable] witness from [check] passes [witness_ok];
    - the verdict kind of [check] is invariant under [relabel];
    - [check] agrees with [reference] on verdict kind wherever the
      reference is tractable ([size_cap]);
    - [graph (of_graph g) = g], and [relabel] commutes with the
      underlying graph relabelling.

    {2 Cert-store keying}

    [name] is the canonical game name.  The certificate store embeds it
    in every content address for a non-bilateral game, so certificates
    from different games can never collide; the bilateral game keeps
    the historical key format (see {!Cert_store.cert_key}). *)

module type METRIC = Metric_sig.METRIC
(** See {!Metric_sig} (split out so {!Cost} can implement it without a
    module cycle). *)

module type GAME = sig
  val name : string
  (** Canonical name, embedded in cert-store keys (["bilateral"],
      ["unilateral"], ...). *)

  type state
  (** A full game state.  For the bilateral game this is the created
      graph; the unilateral game also carries edge ownership. *)

  val of_graph : Graph.t -> state
  (** Canonical state creating [g] (for the unilateral game: the
      canonical edge-ownership assignment). *)

  val graph : state -> Graph.t
  (** The created graph. *)

  val relabel : state -> int array -> state
  (** Vertex relabelling, transported to whatever the state carries
      beyond the graph. *)

  type concept
  (** The game's solution concepts. *)

  val concepts : concept list
  (** Default fuzz-campaign vocabulary, in a stable order. *)

  val concept_name : concept -> string
  val concept_of_string : string -> (concept, string) result

  val check : ?budget:int -> alpha:float -> concept -> state -> Verdict.t
  (** The optimised checker (the subject under test in fuzz
      campaigns). *)

  val reference : alpha:float -> concept -> state -> Verdict.t
  (** Definition-literal oracle; exponential, never truncates. *)

  val size_cap : concept -> int
  (** Largest instance a fuzz campaign may generate for [concept] —
      the reference oracle's tractable range, possibly tightened. *)

  val weighted_sizes : concept -> int list -> int list
  (** Requested campaign sizes clamped to {!size_cap}, with repetitions
      encoding the draw weights (small sizes drawn more often for
      expensive concepts). *)

  val witness_ok : alpha:float -> concept -> state -> Move.t -> bool
  (** Does this move apply to the state and strictly improve every
      participant that must consent?  Validates [Unstable] witnesses.
      Takes the concept for games whose improvement order depends on it
      (the generalized game prices distances through the concept's cost
      function); the bilateral and unilateral instances ignore it. *)

  val rho : alpha:float -> concept -> state -> float
  (** Social cost over this game's social optimum; [infinity] when
      disconnected.  Takes the concept because some games price
      distances per concept (the generalized game's ratio depends on
      the concept's distance-cost function); the bilateral and
      unilateral instances ignore it. *)
end

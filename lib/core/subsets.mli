(** Budgeted subset enumeration, shared by the move searches of
    {!Neighborhood_eq}, {!Strong_eq} and {!Generalized}. *)

exception Out_of_budget
(** Raised by {!iter_subsets} once its budget is spent. *)

val iter_subsets :
  ?min_size:int -> ?max_size:int -> 'a list -> budget:int ref -> ('a list -> unit) -> unit
(** [iter_subsets items ~budget f] calls [f] on every subset of [items]
    with size in [min_size .. max_size] (defaults [0] and
    [List.length items]), smallest sizes first and, within a size, in
    lexicographic order of positions in [items]; each subset lists its
    elements in [items] order.  Every emitted subset costs one unit of
    [budget]; emitting with the budget below zero raises
    {!Out_of_budget}. *)

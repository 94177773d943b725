exception Out_of_budget

(* Smallest sizes first: improving moves are usually small, so under a
   budget the size-ordered sweep finds witnesses far earlier than
   binary-counting order. *)
let iter_subsets ?(min_size = 0) ?max_size items ~budget f =
  let arr = Array.of_list items in
  let k = Array.length arr in
  let cap = match max_size with None -> k | Some m -> min m k in
  let emit acc =
    decr budget;
    if !budget < 0 then raise Out_of_budget;
    f (List.rev acc)
  in
  let rec choose size start acc =
    if size = 0 then emit acc
    else
      for i = start to k - size do
        choose (size - 1) (i + 1) (arr.(i) :: acc)
      done
  in
  for size = min_size to cap do
    choose size 0 []
  done

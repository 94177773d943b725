open Helpers

(* OEIS A000081 (rooted trees) and A000055 (free trees), offset by n. *)
let rooted_counts = [ (1, 1); (2, 1); (3, 2); (4, 4); (5, 9); (6, 20); (7, 48); (8, 115); (9, 286); (10, 719) ]
let free_counts = [ (1, 1); (2, 1); (3, 1); (4, 2); (5, 3); (6, 6); (7, 11); (8, 23); (9, 47); (10, 106); (11, 235); (12, 551); (13, 1301) ]
let connected_iso_counts = [ (1, 1); (2, 1); (3, 2); (4, 6); (5, 21); (6, 112); (7, 853) ]

let sorted_canon gs = List.sort String.compare (List.map Encode.canonical_graph6 gs)

let suite =
  [
    tc "rooted tree counts match A000081" (fun () ->
        List.iter
          (fun (n, expected) ->
            check_int (Printf.sprintf "n=%d" n) expected (Enumerate.rooted_tree_count n))
          rooted_counts);
    tc "free tree counts match A000055" (fun () ->
        List.iter
          (fun (n, expected) ->
            check_int (Printf.sprintf "n=%d" n) expected
              (List.length (Enumerate.free_trees n)))
          free_counts);
    tc "free trees are trees of the right size" (fun () ->
        List.iter
          (fun g ->
            check_true "tree" (Tree.is_tree g);
            check_int "size" 8 (Graph.n g))
          (Enumerate.free_trees 8));
    tc "free trees are pairwise non-isomorphic" (fun () ->
        let codes = List.map Iso.tree_code (Enumerate.free_trees 9) in
        check_int "distinct" (List.length codes)
          (List.length (List.sort_uniq String.compare codes)));
    tc "free_trees guards" (fun () ->
        check_raises_invalid "negative" (fun () -> ignore (Enumerate.free_trees (-1)));
        check_raises_invalid "too large" (fun () -> ignore (Enumerate.free_trees 21)));
    tc "iter_free_trees streams exactly the free_trees list" (fun () ->
        let streamed = ref [] in
        Enumerate.iter_free_trees 10 (fun g -> streamed := g :: !streamed);
        let streamed = List.rev !streamed in
        let listed = Enumerate.free_trees 10 in
        check_int "same count" (List.length listed) (List.length streamed);
        List.iter2 (check_graph "same graph, same order") listed streamed);
    tc "sharded free-tree stream concatenates to the unsharded one" (fun () ->
        List.iter
          (fun m ->
            let whole = Enumerate.free_trees 9 in
            let parts =
              List.concat_map
                (fun k ->
                  let out = ref [] in
                  Enumerate.iter_free_trees ~shard:(k, m) 9 (fun g -> out := g :: !out);
                  List.rev !out)
                (List.init m Fun.id)
            in
            check_int "same count" (List.length whole) (List.length parts);
            List.iter2 (check_graph "same graph, same order") whole parts)
          [ 1; 2; 3; 7; 64 ]);
    tc "shard guards" (fun () ->
        check_raises_invalid "k = m" (fun () ->
            Enumerate.iter_free_trees ~shard:(2, 2) 5 (fun _ -> ()));
        check_raises_invalid "negative k" (fun () ->
            Enumerate.iter_free_trees ~shard:(-1, 2) 5 (fun _ -> ()));
        check_raises_invalid "m = 0" (fun () ->
            Enumerate.iter_orderly_connected ~shard:(0, 0) 5 (fun _ -> ())));
    tc "labeled tree counts are n^(n-2)" (fun () ->
        List.iter
          (fun n ->
            let count = ref 0 in
            Enumerate.iter_labeled_trees n (fun g ->
                incr count;
                assert (Tree.is_tree g));
            check_int
              (Printf.sprintf "n=%d" n)
              (int_of_float (float_of_int n ** float_of_int (n - 2)))
              !count)
          [ 3; 4; 5; 6 ]);
    tc "connected labeled graph count n=4 is 38" (fun () ->
        let count = ref 0 in
        Enumerate.iter_connected_graphs 4 (fun _ -> incr count);
        check_int "A001187(4)" 38 !count);
    tc "connected iso-class counts match A001349" (fun () ->
        List.iter
          (fun (n, expected) ->
            check_int (Printf.sprintf "n=%d" n) expected
              (List.length (Enumerate.connected_graphs_iso n)))
          connected_iso_counts);
    tc "connected iso classes are connected and non-isomorphic" (fun () ->
        let gs = Enumerate.connected_graphs_iso 5 in
        List.iter (fun g -> check_true "connected" (Paths.is_connected g)) gs;
        let rec pairwise = function
          | [] -> ()
          | g :: rest ->
              List.iter (fun h -> check_false "non-isomorphic" (Iso.isomorphic g h)) rest;
              pairwise rest
        in
        pairwise gs);
    tc "orderly classes equal the legacy edge-mask classes (n <= 6)" (fun () ->
        List.iter
          (fun n ->
            let legacy =
              let acc = Enumerate.iso_acc_create n in
              Enumerate.iter_connected_bitgraphs n (Enumerate.iso_acc_add acc);
              Enumerate.iso_acc_graphs acc
            in
            let orderly = Enumerate.connected_graphs_orderly n in
            check_int (Printf.sprintf "n=%d count" n) (List.length legacy)
              (List.length orderly);
            List.iter2
              (Alcotest.(check string) (Printf.sprintf "n=%d class" n))
              (sorted_canon legacy) (sorted_canon orderly))
          [ 1; 2; 3; 4; 5; 6 ]);
    tc "orderly children of distinct parents are non-isomorphic" (fun () ->
        let acc = Enumerate.iso_acc_create 6 in
        let total = ref 0 in
        List.iter
          (fun parent ->
            Enumerate.iter_orderly_children parent (fun child ->
                incr total;
                Enumerate.iso_acc_add acc child))
          (Enumerate.orderly_parents 5);
        check_int "no cross-parent duplicates" !total
          (List.length (Enumerate.iso_acc_graphs acc));
        check_int "A001349(6)" 112 !total);
    tc "sharded orderly enumeration concatenates to the unsharded one" (fun () ->
        let whole = Enumerate.connected_graphs_orderly 6 in
        List.iter
          (fun m ->
            let parts =
              List.concat_map
                (fun k -> Enumerate.connected_graphs_orderly ~shard:(k, m) 6)
                (List.init m Fun.id)
            in
            check_int "same count" (List.length whole) (List.length parts);
            List.iter2 (check_graph "same graph, same order") whole parts)
          [ 1; 2; 3; 5; 64 ]);
    tc "rooted tree enumeration yields valid rooted trees" (fun () ->
        Enumerate.iter_rooted_trees 7 (fun (g, root) ->
            check_true "tree" (Tree.is_tree g);
            check_int "root" 0 root));
    tc "enumeration guards" (fun () ->
        check_raises_invalid "labeled too large" (fun () ->
            Enumerate.iter_labeled_trees 10 (fun _ -> ()));
        check_raises_invalid "connected too large" (fun () ->
            Enumerate.iter_connected_graphs 8 (fun _ -> ()));
        check_raises_invalid "orderly too large" (fun () ->
            Enumerate.iter_orderly_connected 10 (fun _ -> ())));
    slow "orderly certifies A001349(8) = 11117" (fun () ->
        let count = ref 0 in
        Enumerate.iter_orderly_connected 8 (fun _ -> incr count);
        check_int "n=8" 11117 !count);
    slow "free tree counts match A000055 through n=16" (fun () ->
        List.iter
          (fun (n, expected) ->
            let count = ref 0 in
            Enumerate.iter_free_trees n (fun _ -> incr count);
            check_int (Printf.sprintf "n=%d" n) expected !count)
          [ (14, 3159); (15, 7741); (16, 19320) ]);
  ]

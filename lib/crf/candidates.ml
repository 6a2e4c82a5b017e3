(* Counts are kept per interned id ([Symbols] guards the widths): inner
   tables map label id -> count ref, so a bump on a seen label is one
   lookup and an in-place increment — no find-then-replace double hash,
   and no string hashing or key concatenation anywhere on the hot path. *)

type counts = (int, int ref) Hashtbl.t

type t = {
  syms : Symbols.t;
  unary : (int, counts) Hashtbl.t;  (** rel id → label counts *)
  pairwise : (int, counts) Hashtbl.t;
      (** packed direction/rel/neighbor-label → label counts *)
  global : counts;
  mutable sorted_global : int array;
      (** lazily computed; count desc, label string asc *)
}

let symbols t = t.syms

(* dir gets one bit above the [Fast.pw_key] layout: rel in the middle
   24 bits, the neighbor label in the low 18. *)
let pack ~dir ~rel ~other = (dir lsl 42) lor (rel lsl 18) lor other
let unpack_dir key = key lsr 42
let unpack_rel key = (key lsr 18) land 0xFFFFFF
let unpack_other key = key land 0x3FFFF

let incr_count ?(by = 1) (tbl : counts) label =
  match Hashtbl.find_opt tbl label with
  | Some r -> r := !r + by
  | None -> Hashtbl.add tbl label (ref by)

let bump ?by tbl key label =
  let inner =
    match Hashtbl.find_opt tbl key with
    | Some h -> h
    | None ->
        let h = Hashtbl.create 4 in
        Hashtbl.add tbl key h;
        h
  in
  incr_count ?by inner label

let create ?symbols () =
  {
    syms = (match symbols with Some s -> s | None -> Symbols.create ());
    unary = Hashtbl.create 1024;
    pairwise = Hashtbl.create 4096;
    global = Hashtbl.create 256;
    sorted_global = [||];
  }

(* One graph's counts, the unit of streaming: [build] is a fold of
   this over an in-memory corpus, and the out-of-core path calls it
   per shard-loaded graph so the whole corpus never has to coexist
   with the counts. Invalidate the ranking cache — counting after a
   query must not leave a stale global top behind. *)
let count_graph t (g : Graph.t) =
  let label = Symbols.label t.syms and rel_id = Symbols.rel t.syms in
  let gold = Graph.gold_assignment g in
  let gold_ids = Array.map label gold in
  Array.iter
    (fun (n : Graph.node) ->
      if n.Graph.kind = `Unknown then
        incr_count t.global (label n.Graph.gold))
    g.Graph.nodes;
  (* Every factor's relation is interned, used in a count or not:
     [Fast.encode] then finds every training rel already present,
     so rel ids are assigned in plain corpus factor order. *)
  List.iter
    (fun f ->
      match f with
      | Graph.Unary { n; rel; mult } ->
          let r = rel_id rel in
          if g.Graph.nodes.(n).Graph.kind = `Unknown then
            bump ~by:mult t.unary r gold_ids.(n)
      | Graph.Pairwise { a; b; rel; mult } ->
          let r = rel_id rel in
          if g.Graph.nodes.(a).Graph.kind = `Unknown then
            bump ~by:mult t.pairwise
              (pack ~dir:0 ~rel:r ~other:gold_ids.(b))
              gold_ids.(a);
          if g.Graph.nodes.(b).Graph.kind = `Unknown then
            bump ~by:mult t.pairwise
              (pack ~dir:1 ~rel:r ~other:gold_ids.(a))
              gold_ids.(b))
    g.Graph.factors;
  t.sorted_global <- [||]

let build ?symbols graphs =
  let t = create ?symbols () in
  List.iter (count_graph t) graphs;
  t

let num_labels t = Hashtbl.length t.global

(* Count desc, label string asc — an explicit total order (the id
   order is first-intern order, not alphabetical), so the ranking is
   independent of hash-table iteration. *)
let compare_ranked t (la, ca) (lb, cb) =
  let c = Int.compare cb ca in
  if c <> 0 then c
  else
    String.compare
      (Symbols.label_string t.syms la)
      (Symbols.label_string t.syms lb)

let sorted_global_ids t =
  if Array.length t.sorted_global = 0 && Hashtbl.length t.global > 0 then begin
    let n = Hashtbl.length t.global in
    let arr = Array.make n (0, 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun l c ->
        arr.(!i) <- (l, !c);
        incr i)
      t.global;
    Array.sort (compare_ranked t) arr;
    t.sorted_global <- Array.map fst arr
  end;
  t.sorted_global

let global_top_ids t k =
  let ids = sorted_global_ids t in
  let n = min k (Array.length ids) in
  Array.to_list (Array.sub ids 0 (max 0 n))

let global_top t k =
  List.map (Symbols.label_string t.syms) (global_top_ids t k)

let label_count t l =
  match Symbols.find_label t.syms l with
  | None -> 0
  | Some id -> (
      match Hashtbl.find_opt t.global id with Some r -> !r | None -> 0)

(* A reusable scoring slate for batch candidate generation: a flat
   per-label-id accumulator with an epoch stamp, so clearing between
   nodes is O(labels touched) and merging evidence is two array writes
   — no per-node hash table, no hashing at all. A slate serves one
   caller at a time; [Fast.candidate_ids] allocates one per graph, so
   parallel per-graph inference never shares one. *)
type slate = {
  mutable acc : int array;  (* evidence score per label id *)
  mutable stamp : int array;  (* epoch that last wrote [acc] *)
  mutable touched : int array;  (* label ids written this epoch *)
  mutable n_touched : int;
  mutable epoch : int;
}

let slate () =
  { acc = [||]; stamp = [||]; touched = [||]; n_touched = 0; epoch = 0 }

let slate_ready sl n =
  if Array.length sl.acc < n then begin
    let cap = max 16 n in
    sl.acc <- Array.make cap 0;
    sl.stamp <- Array.make cap 0;  (* 0 never equals a live epoch *)
    sl.touched <- Array.make cap 0
  end;
  sl.epoch <- sl.epoch + 1;
  sl.n_touched <- 0

let slate_add sl l c =
  if sl.stamp.(l) = sl.epoch then sl.acc.(l) <- sl.acc.(l) + c
  else begin
    sl.stamp.(l) <- sl.epoch;
    sl.acc.(l) <- c;
    sl.touched.(sl.n_touched) <- l;
    sl.n_touched <- sl.n_touched + 1
  end

let slate_begin sl t = slate_ready sl (Symbols.num_labels t.syms)

let merge_unary_id sl t rel =
  match Hashtbl.find_opt t.unary rel with
  | Some inner -> Hashtbl.iter (fun l c -> slate_add sl l !c) inner
  | None -> ()

let merge_pairwise_id sl t ~dir ~rel ~other =
  match Hashtbl.find_opt t.pairwise (pack ~dir ~rel ~other) with
  | Some inner -> Hashtbl.iter (fun l c -> slate_add sl l !c) inner
  | None -> ()

let slate_ranked sl t ~max =
  let ranked =
    Array.init sl.n_touched (fun i ->
        let l = sl.touched.(i) in
        (l, sl.acc.(l)))
  in
  Array.sort (compare_ranked t) ranked;
  let out = ref [] and count = ref 0 in
  let n_evid = if sl.n_touched < max then sl.n_touched else max in
  for i = 0 to n_evid - 1 do
    out := fst ranked.(i) :: !out;
    incr count
  done;
  (* Top up with globally frequent labels to give inference room to
     move. If this loop runs, every evidence label was emitted, so the
     epoch stamp doubles as the dedup set — no per-node table. *)
  let top = sorted_global_ids t in
  let i = ref 0 in
  while !count < max && !i < Array.length top do
    let l = top.(!i) in
    if sl.stamp.(l) <> sl.epoch then begin
      out := l :: !out;
      incr count
    end;
    incr i
  done;
  List.rev !out

let ids_for_node_into sl t (g : Graph.t) factors n ~max =
  slate_begin sl t;
  let known_other i =
    let nd = g.Graph.nodes.(i) in
    if nd.Graph.kind = `Known then Symbols.find_label t.syms nd.Graph.gold
    else None
  in
  List.iter
    (fun f ->
      match f with
      | Graph.Unary { n = m; rel; _ } when m = n -> (
          match Symbols.find_rel t.syms rel with
          | Some r -> merge_unary_id sl t r
          | None -> ())
      | Graph.Pairwise { a; b; rel; _ } when a = n -> (
          match (Symbols.find_rel t.syms rel, known_other b) with
          | Some r, Some other -> merge_pairwise_id sl t ~dir:0 ~rel:r ~other
          | _ -> ())
      | Graph.Pairwise { a; b; rel; _ } when b = n -> (
          match (Symbols.find_rel t.syms rel, known_other a) with
          | Some r, Some other -> merge_pairwise_id sl t ~dir:1 ~rel:r ~other
          | _ -> ())
      | _ -> ())
    factors;
  slate_ranked sl t ~max

let ids_for_node t g factors n ~max =
  ids_for_node_into (slate ()) t g factors n ~max

let for_node t g factors n ~max =
  List.map (Symbols.label_string t.syms) (ids_for_node t g factors n ~max)

(* Model files carry raw interned ids (the file's label/rel tables
   define the id space). Sorted so the dump is a canonical form:
   save → load → save is byte-identical regardless of hash-table
   iteration order. *)
let dump_ids t =
  let flat tbl =
    let acc = ref [] in
    Hashtbl.iter
      (fun k inner -> Hashtbl.iter (fun l c -> acc := (k, l, !c) :: !acc) inner)
      tbl;
    List.sort compare !acc
  in
  let g = Hashtbl.fold (fun l c acc -> (l, !c) :: acc) t.global [] in
  (List.sort compare g, flat t.unary, flat t.pairwise)

let of_ids ~symbols ~global ~unary ~pairwise =
  let t = create ~symbols () in
  let nl = Symbols.num_labels t.syms and nr = Symbols.num_rels t.syms in
  let lab l =
    if l < 0 || l >= nl then
      Printf.ksprintf failwith "candidate label id %d out of range" l
    else l
  in
  let rel r =
    if r < 0 || r >= nr then
      Printf.ksprintf failwith "candidate relation id %d out of range" r
    else r
  in
  List.iter (fun (l, c) -> incr_count ~by:c t.global (lab l)) global;
  List.iter (fun (r, l, c) -> bump ~by:c t.unary (rel r) (lab l)) unary;
  List.iter
    (fun (key, l, c) ->
      if key < 0 || unpack_dir key > 1 then
        Printf.ksprintf failwith "candidate pairwise key %d out of range" key;
      ignore (rel (unpack_rel key));
      ignore (lab (unpack_other key));
      bump ~by:c t.pairwise key (lab l))
    pairwise;
  t

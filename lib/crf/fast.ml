type egraph = {
  graph : Graph.t;
  unknown : int array;
  is_unknown : bool array;
  gold : int array;
  pw_a : int array;
  pw_b : int array;
  pw_rel : int array;
  pw_mult : float array;
  un_n : int array;
  un_rel : int array;
  un_mult : float array;
  touch_pw : int array array;
  touch_un : int array array;
  nbr : int array array;
      (* per unknown *slot*: the sorted slot indices of the unknown
         nodes sharing a pairwise factor with it — the exact set whose
         cached scores go stale when this slot's label flips. *)
}

let unknown_nodes eg = eg.unknown

(* Weight keys are packed into single ints: labels get 18 bits each
   and relations 24, so the inner loop allocates nothing and hashes
   machine ints. The packing is only sound if ids fit those widths —
   [Symbols] enforces exactly these limits at interning time, so by
   the time an id reaches here it is in range by construction and the
   hot path carries no checks. *)
let pw_key la rel lb = (la lsl 42) lor (rel lsl 18) lor lb
let un_key l rel = (l lsl 24) lor rel

type model = {
  syms : Symbols.t;
  pw : Itbl.t;
  un : Itbl.t;
  bias : Itbl.t;
  (* averaging accumulators *)
  pw_u : Itbl.t;
  un_u : Itbl.t;
  bias_u : Itbl.t;
  mutable steps : int;
}

let create ?symbols () =
  {
    syms = (match symbols with Some s -> s | None -> Symbols.create ());
    pw = Itbl.create 65536;
    un = Itbl.create 16384;
    bias = Itbl.create 512;
    pw_u = Itbl.create 65536;
    un_u = Itbl.create 16384;
    bias_u = Itbl.create 512;
    steps = 0;
  }

(* A per-domain write target for one parallel training slice: shares
   the (frozen) symbol table, starts with empty weight tables that
   hold only this slice's updates. *)
let delta_of m =
  {
    syms = m.syms;
    pw = Itbl.create 1024;
    un = Itbl.create 256;
    bias = Itbl.create 64;
    pw_u = Itbl.create 1024;
    un_u = Itbl.create 256;
    bias_u = Itbl.create 64;
    steps = 0;
  }

let symbols m = m.syms
let add = Itbl.add

(* Fold one slice's deltas back into the model. Callers merge slices
   in pass order and per-key accumulation is independent across keys,
   so the result depends only on the slice boundaries (i.e. the job
   count), never on domain scheduling or table iteration order. *)
let merge_delta m d =
  Itbl.iter (add m.pw) d.pw;
  Itbl.iter (add m.un) d.un;
  Itbl.iter (add m.bias) d.bias;
  Itbl.iter (add m.pw_u) d.pw_u;
  Itbl.iter (add m.un_u) d.un_u;
  Itbl.iter (add m.bias_u) d.bias_u

let encode m (g : Graph.t) =
  let n = Array.length g.Graph.nodes in
  let gold =
    Array.map (fun (nd : Graph.node) -> Symbols.label m.syms nd.Graph.gold)
      g.Graph.nodes
  in
  let is_unknown =
    Array.map (fun (nd : Graph.node) -> nd.Graph.kind = `Unknown) g.Graph.nodes
  in
  let unknown = Array.of_list (Graph.unknown_ids g) in
  let pw = ref [] and un = ref [] in
  List.iter
    (fun f ->
      match f with
      | Graph.Pairwise { a; b; rel; mult } ->
          pw := (a, b, Symbols.rel m.syms rel, float_of_int mult) :: !pw
      | Graph.Unary { n = i; rel; mult } ->
          un := (i, Symbols.rel m.syms rel, float_of_int mult) :: !un)
    g.Graph.factors;
  let pw = Array.of_list (List.rev !pw) and un = Array.of_list (List.rev !un) in
  let pw_a = Array.map (fun (a, _, _, _) -> a) pw in
  let pw_b = Array.map (fun (_, b, _, _) -> b) pw in
  let pw_rel = Array.map (fun (_, _, r, _) -> r) pw in
  let pw_mult = Array.map (fun (_, _, _, m) -> m) pw in
  let un_n = Array.map (fun (i, _, _) -> i) un in
  let un_rel = Array.map (fun (_, r, _) -> r) un in
  let un_mult = Array.map (fun (_, _, m) -> m) un in
  let touch_pw_l = Array.make n [] and touch_un_l = Array.make n [] in
  Array.iteri
    (fun fi a ->
      touch_pw_l.(a) <- fi :: touch_pw_l.(a);
      let b = pw_b.(fi) in
      if b <> a then touch_pw_l.(b) <- fi :: touch_pw_l.(b))
    pw_a;
  Array.iteri (fun fi i -> touch_un_l.(i) <- fi :: touch_un_l.(i)) un_n;
  let touch_pw = Array.map Array.of_list touch_pw_l in
  let slot_of = Array.make n (-1) in
  Array.iteri (fun s u -> slot_of.(u) <- s) unknown;
  let nbr =
    Array.map
      (fun u ->
        let acc = ref [] in
        Array.iter
          (fun fi ->
            let o = if pw_a.(fi) = u then pw_b.(fi) else pw_a.(fi) in
            let s = slot_of.(o) in
            if s >= 0 then acc := s :: !acc)
          touch_pw.(u);
        Array.of_list (List.sort_uniq Int.compare !acc))
      unknown
  in
  {
    graph = g;
    unknown;
    is_unknown;
    gold;
    pw_a;
    pw_b;
    pw_rel;
    pw_mult;
    un_n;
    un_rel;
    un_mult;
    touch_pw;
    touch_un = Array.map Array.of_list touch_un_l;
    nbr;
  }

let graph_of eg = eg.graph

type init_style = No_init | Log_counts | Naive_bayes
type trainer = Structured | Pseudolikelihood | Pl_gradient | Mixed
type engine = Incremental | Full_rescore

type config = {
  max_candidates : int;
  max_passes : int;
  seed : int;
  iterations : int;
  averaged : bool;
  init : init_style;
  init_scale : float;
  init_min_count : int;
  trainer : trainer;
  engine : engine;
}

let default_config =
  {
    max_candidates = 24;
    max_passes = 8;
    seed = 17;
    iterations = 6;
    averaged = true;
    init = Log_counts;
    init_scale = 0.5;
    init_min_count = 2;
    trainer = Pseudolikelihood;
    engine = Incremental;
  }

(* Growable buffers for batched weight lookups: a scoring loop writes
   every key it needs into [keys], fetches the weights with one
   [Itbl.get_into] per table into [ws], and sums from there — no boxed
   float per probe. [out] receives {!node_scores}' results. A scratch
   serves one caller at a time. *)
type scratch = {
  mutable keys : int array;
  mutable ws : float array;
  mutable out : float array;
}

let scratch () = { keys = [||]; ws = [||]; out = [||] }

let reserve sc n =
  if Array.length sc.keys < n then begin
    let cap = max n (2 * Array.length sc.keys) in
    sc.keys <- Array.make cap 0;
    sc.ws <- Array.make cap 0.
  end

(* The scores of labeling node [n] with each label of [cs], every other
   node labeled as in [assignment], into [sc.out.(0 .. |cs| - 1)]. Per
   candidate the sum runs bias, then pairwise factors in touch order,
   then unary factors in touch order: the one float expression every
   engine and the {!Scorer} cache reproduce bit for bit. *)
let node_scores sc m eg n assignment cs =
  let tp = eg.touch_pw.(n) and tu = eg.touch_un.(n) in
  let np = Array.length tp and nu = Array.length tu and nc = Array.length cs in
  (* key layout: pairwise at [c * np + j], unary from [un0], bias from
     [bias0] *)
  let un0 = nc * np in
  let bias0 = un0 + (nc * nu) in
  reserve sc (bias0 + nc);
  if Array.length sc.out < nc then sc.out <- Array.make (max nc 32) 0.;
  let keys = sc.keys and ws = sc.ws and out = sc.out in
  for j = 0 to np - 1 do
    let fi = tp.(j) in
    let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) and rel = eg.pw_rel.(fi) in
    for c = 0 to nc - 1 do
      let l = cs.(c) in
      let la = if a = n then l else assignment.(a) in
      let lb = if b = n then l else assignment.(b) in
      keys.((c * np) + j) <- pw_key la rel lb
    done
  done;
  for j = 0 to nu - 1 do
    let rel = eg.un_rel.(tu.(j)) in
    for c = 0 to nc - 1 do
      keys.(un0 + (c * nu) + j) <- un_key cs.(c) rel
    done
  done;
  Array.blit cs 0 keys bias0 nc;
  Itbl.get_into m.pw keys ~pos:0 ~len:un0 ws;
  Itbl.get_into m.un keys ~pos:un0 ~len:(nc * nu) ws;
  Itbl.get_into m.bias keys ~pos:bias0 ~len:nc ws;
  for c = 0 to nc - 1 do
    let s = ref ws.(bias0 + c) in
    for j = 0 to np - 1 do
      s := !s +. (eg.pw_mult.(tp.(j)) *. ws.((c * np) + j))
    done;
    for j = 0 to nu - 1 do
      s := !s +. (eg.un_mult.(tu.(j)) *. ws.(un0 + (c * nu) + j))
    done;
    out.(c) <- !s
  done

let node_score m eg n assignment l =
  let sc = scratch () in
  node_scores sc m eg n assignment [| l |];
  sc.out.(0)

(* First strictly-greater score wins, so ties keep the earlier
   candidate; [dflt] when [cs] is empty. *)
let argmax cs scores dflt =
  let best = ref dflt and best_score = ref neg_infinity in
  for c = 0 to Array.length cs - 1 do
    let s = scores.(c) in
    if s > !best_score then begin
      best_score := s;
      best := cs.(c)
    end
  done;
  !best

(* Incremental ICM scorer: caches every candidate's per-factor score
   contributions so a sweep only pays for what actually changed.

   Invariant: for a slot [i] with [dirty.(i) = false], [sc.(i).(c)] is
   bit-identical to [node_score m eg n assignment cand.(i).(c)] run
   fresh against the current assignment. This is exact, not
   approximate: each pairwise column caches the neighbor label it was
   computed against ([seen]); a refresh recomputes exactly the columns
   whose neighbor changed, with the same float expression
   [node_score] uses, then resums all columns in [node_score]'s exact
   operation order (bias, pairwise in touch order, unary in touch
   order). Unary columns and the bias depend only on the candidate
   label and are filled once — weights are frozen during inference.

   A slot's own label never enters its own candidate scores
   ([Graph.make] rejects self-loop pairwise factors), so flipping slot
   [k] stales exactly the slots in [eg.nbr.(k)] — everything else may
   be skipped by a sweep with no effect on the result. *)
module Scorer = struct
  type t = {
    m : model;
    eg : egraph;
    cand : int array array;
    assignment : int array;
    npw : int array;  (* per slot: pairwise column count *)
    ncols : int array;  (* per slot: pairwise + unary columns *)
    nb_of : int array array;  (* per slot, per pw column: neighbor node *)
    contrib : float array array;  (* per slot: ncand * ncols, cand-major *)
    bias_c : float array array;  (* per slot, per candidate: bias weight *)
    seen : int array array;  (* per slot, per pw column: label cached
                                against; -1 = never computed *)
    sc : float array array;  (* per slot, per candidate: cached score *)
    dirty : bool array;
    buf : scratch;  (* one column's keys and weights *)
  }

  let create m eg cand assignment =
    let k = Array.length eg.unknown in
    let buf = scratch () in
    let npw = Array.make k 0
    and ncols = Array.make k 0
    and nb_of = Array.make k [||]
    and contrib = Array.make k [||]
    and bias_c = Array.make k [||]
    and seen = Array.make k [||]
    and sc = Array.make k [||] in
    for i = 0 to k - 1 do
      let n = eg.unknown.(i) in
      let tp = eg.touch_pw.(n) and tu = eg.touch_un.(n) in
      let np = Array.length tp and nu = Array.length tu in
      let cs = cand.(i) in
      let nc = Array.length cs in
      npw.(i) <- np;
      ncols.(i) <- np + nu;
      nb_of.(i) <-
        Array.map
          (fun fi -> if eg.pw_a.(fi) = n then eg.pw_b.(fi) else eg.pw_a.(fi))
          tp;
      let row = Array.make (nc * (np + nu)) 0. in
      contrib.(i) <- row;
      bias_c.(i) <- Array.make nc 0.;
      Itbl.get_into m.bias cs ~pos:0 ~len:nc bias_c.(i);
      seen.(i) <- Array.make np (-1);
      sc.(i) <- Array.make nc 0.;
      reserve buf (nc * nu);
      let keys = buf.keys and ws = buf.ws in
      for c = 0 to nc - 1 do
        for j = 0 to nu - 1 do
          keys.((c * nu) + j) <- un_key cs.(c) eg.un_rel.(tu.(j))
        done
      done;
      Itbl.get_into m.un keys ~pos:0 ~len:(nc * nu) ws;
      for c = 0 to nc - 1 do
        let base = (c * (np + nu)) + np in
        for j = 0 to nu - 1 do
          row.(base + j) <- eg.un_mult.(tu.(j)) *. ws.((c * nu) + j)
        done
      done
    done;
    {
      m;
      eg;
      cand;
      assignment;
      npw;
      ncols;
      nb_of;
      contrib;
      bias_c;
      seen;
      sc;
      dirty = Array.make k true;
      buf;
    }

  let refresh t i =
    let eg = t.eg in
    let n = eg.unknown.(i) in
    let tp = eg.touch_pw.(n) in
    let cs = t.cand.(i) in
    let np = t.npw.(i) and nc = Array.length t.cand.(i) in
    let cols = t.ncols.(i) in
    let row = t.contrib.(i) and seen = t.seen.(i) and nbs = t.nb_of.(i) in
    reserve t.buf nc;
    let keys = t.buf.keys and ws = t.buf.ws in
    for j = 0 to np - 1 do
      let cur = t.assignment.(Array.unsafe_get nbs j) in
      if Array.unsafe_get seen j <> cur then begin
        Array.unsafe_set seen j cur;
        let fi = Array.unsafe_get tp j in
        let rel = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
        if eg.pw_a.(fi) = n then
          for c = 0 to nc - 1 do
            Array.unsafe_set keys c (pw_key (Array.unsafe_get cs c) rel cur)
          done
        else
          for c = 0 to nc - 1 do
            Array.unsafe_set keys c (pw_key cur rel (Array.unsafe_get cs c))
          done;
        Itbl.get_into t.m.pw keys ~pos:0 ~len:nc ws;
        for c = 0 to nc - 1 do
          Array.unsafe_set row ((c * cols) + j) (mult *. Array.unsafe_get ws c)
        done
      end
    done;
    let scores = t.sc.(i) and bias = t.bias_c.(i) in
    for c = 0 to nc - 1 do
      let s = ref (Array.unsafe_get bias c) in
      let base = c * cols in
      for j = 0 to cols - 1 do
        s := !s +. Array.unsafe_get row (base + j)
      done;
      Array.unsafe_set scores c !s
    done;
    t.dirty.(i) <- false

  let is_dirty t i = t.dirty.(i)

  let scores t i =
    if t.dirty.(i) then refresh t i;
    t.sc.(i)

  (* Same argmax as the full-rescore path: first strictly-greater
     candidate wins, ties keep the earlier candidate, an empty set
     keeps the current label. *)
  let best t i =
    let n = t.eg.unknown.(i) in
    let cs = t.cand.(i) in
    if Array.length cs = 0 then begin
      t.dirty.(i) <- false;
      t.assignment.(n)
    end
    else begin
      if t.dirty.(i) then refresh t i;
      argmax cs t.sc.(i) t.assignment.(n)
    end

  let set_label t i l =
    let n = t.eg.unknown.(i) in
    if t.assignment.(n) <> l then begin
      t.assignment.(n) <- l;
      Array.iter
        (fun j -> Array.unsafe_set t.dirty j true)
        t.eg.nbr.(i)
    end
end

let shuffle rng arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

(* Candidate label ids for every unknown node; gold appended when
   [force_gold] (training), so the target is reachable but never wins
   score ties. [cands] shares the model's symbol table, so its ids are
   the engine's ids directly — no per-candidate re-interning. *)
let candidate_ids cfg cands _m eg ~force_gold =
  (* The encoded graph already carries resolved rel and gold-label
     ids, so evidence merging is pure int work — no string hashing,
     no [Graph.touching] materialization. *)
  let sl = Candidates.slate () in
  Array.map
    (fun n ->
      Candidates.slate_begin sl cands;
      Array.iter
        (fun fi -> Candidates.merge_unary_id sl cands eg.un_rel.(fi))
        eg.touch_un.(n);
      Array.iter
        (fun fi ->
          let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
          if a = n then begin
            if not eg.is_unknown.(b) then
              Candidates.merge_pairwise_id sl cands ~dir:0 ~rel:eg.pw_rel.(fi)
                ~other:eg.gold.(b)
          end
          else if not eg.is_unknown.(a) then
            Candidates.merge_pairwise_id sl cands ~dir:1 ~rel:eg.pw_rel.(fi)
              ~other:eg.gold.(a))
        eg.touch_pw.(n);
      let ids =
        Candidates.slate_ranked sl cands ~max:cfg.max_candidates
      in
      let ids =
        if force_gold && not (List.mem eg.gold.(n) ids) then
          ids @ [ eg.gold.(n) ]
        else ids
      in
      Array.of_list ids)
    eg.unknown

let map_assignment ?cand cfg cands m eg ~force_gold ~seed =
  let rng = Random.State.make [| seed |] in
  let cand =
    match cand with
    | Some c -> c
    | None -> candidate_ids cfg cands m eg ~force_gold
  in
  let default =
    match Candidates.global_top_ids cands 1 with
    | [ l ] -> l
    | _ -> Symbols.label m.syms "?"
  in
  let assignment =
    Array.mapi
      (fun i g -> if eg.is_unknown.(i) then default else g)
      eg.gold
  in
  (* Start every unknown at its top count-ranked candidate (an
     evidence-based guess), not at the one global default: coordinate
     ascent from an all-identical start can stick in poor fixpoints. *)
  Array.iteri
    (fun i n ->
      if Array.length cand.(i) > 0 then assignment.(n) <- cand.(i).(0))
    eg.unknown;
  let order = Array.init (Array.length eg.unknown) Fun.id in
  let changed = ref true and passes = ref 0 in
  (match cfg.engine with
  | Full_rescore ->
      (* Reference engine: rescore every candidate of every node from
         scratch, every sweep — the golden baseline the incremental
         engine is tested byte-identical against. *)
      let buf = scratch () in
      let best i n =
        let cs = cand.(i) in
        if Array.length cs = 0 then assignment.(n)
        else begin
          node_scores buf m eg n assignment cs;
          argmax cs buf.out assignment.(n)
        end
      in
      Array.iteri (fun i n -> assignment.(n) <- best i n) eg.unknown;
      while !changed && !passes < cfg.max_passes do
        changed := false;
        incr passes;
        shuffle rng order;
        Array.iter
          (fun i ->
            let n = eg.unknown.(i) in
            let l = best i n in
            if l <> assignment.(n) then begin
              assignment.(n) <- l;
              changed := true
            end)
          order
      done
  | Incremental ->
      (* Delta engine, exact by construction (see {!Scorer}): a clean
         slot's cached argmax is its current label, so sweeps evaluate
         only slots whose neighborhood changed — the flip sequence,
         pass count and rng consumption match Full_rescore move for
         move, making the result byte-identical. *)
      let sc = Scorer.create m eg cand assignment in
      Array.iteri
        (fun i n ->
          let l = Scorer.best sc i in
          if l <> assignment.(n) then Scorer.set_label sc i l)
        eg.unknown;
      while !changed && !passes < cfg.max_passes do
        changed := false;
        incr passes;
        shuffle rng order;
        Array.iter
          (fun i ->
            if Scorer.is_dirty sc i then begin
              let n = eg.unknown.(i) in
              let l = Scorer.best sc i in
              if l <> assignment.(n) then begin
                Scorer.set_label sc i l;
                changed := true
              end
            end)
          order
      done);
  assignment

(* Perceptron update: +1 on gold features, -1 on predicted features,
   per factor occurrence, restricted to factors touching an unknown.
   Writes go to [wr]: the model itself when training sequentially, a
   per-domain delta when a parallel pass accumulates updates. *)
let[@inline] upd_avg tbl tbl_u t k d =
  add tbl k d;
  add tbl_u k (t *. d)

let update wr eg ~gold ~pred =
  let t = float_of_int wr.steps in
  let upd_pw k d = upd_avg wr.pw wr.pw_u t k d in
  let upd_un k d = upd_avg wr.un wr.un_u t k d in
  let upd_bias k d = upd_avg wr.bias wr.bias_u t k d in
  Array.iteri
    (fun fi a ->
      let b = eg.pw_b.(fi) in
      if eg.is_unknown.(a) || eg.is_unknown.(b) then begin
        let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
        let kg = pw_key gold.(a) r gold.(b) and kp = pw_key pred.(a) r pred.(b) in
        if kg <> kp then begin
          upd_pw kg mult;
          upd_pw kp (-.mult)
        end
      end)
    eg.pw_a;
  Array.iteri
    (fun fi i ->
      if eg.is_unknown.(i) then begin
        let r = eg.un_rel.(fi) and mult = eg.un_mult.(fi) in
        if gold.(i) <> pred.(i) then begin
          upd_un (un_key gold.(i) r) mult;
          upd_un (un_key pred.(i) r) (-.mult)
        end
      end)
    eg.un_n;
  Array.iter
    (fun n ->
      if gold.(n) <> pred.(n) then begin
        upd_bias gold.(n) 1.;
        upd_bias pred.(n) (-1.)
      end)
    eg.unknown

(* Mistake-driven pseudolikelihood perceptron: each unknown node is
   scored with every other node clamped to gold; a wrong local argmax
   updates only the factors touching that node. Pairwise weights are
   thus estimated against correct neighborhoods — far more stable than
   learning from the joint MAP's own mistakes — while test-time
   inference stays joint (ICM). Scores read [rd], updates land in [wr];
   sequential training passes the same model for both (updates are
   visible immediately, the historical behavior), parallel passes read
   the round-start model and write a delta. *)
let pseudo_perceptron_pass ~rd ~wr ~buf eg ~cand =
  let gold = eg.gold in
  for i = 0 to Array.length eg.unknown - 1 do
    let n = eg.unknown.(i) in
    let cs = cand.(i) in
    if Array.length cs > 0 then begin
      wr.steps <- wr.steps + 1;
      node_scores buf rd eg n gold cs;
      let p = argmax cs buf.out gold.(n) in
      if p <> gold.(n) then begin
        let t = float_of_int wr.steps in
        let tp = eg.touch_pw.(n) and tu = eg.touch_un.(n) in
        for j = 0 to Array.length tp - 1 do
          let fi = tp.(j) in
          let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
          let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
          let kg = pw_key gold.(a) r gold.(b) in
          let kp =
            pw_key (if a = n then p else gold.(a)) r (if b = n then p else gold.(b))
          in
          if kg <> kp then begin
            upd_avg wr.pw wr.pw_u t kg mult;
            upd_avg wr.pw wr.pw_u t kp (-.mult)
          end
        done;
        for j = 0 to Array.length tu - 1 do
          let fi = tu.(j) in
          let r = eg.un_rel.(fi) and mult = eg.un_mult.(fi) in
          upd_avg wr.un wr.un_u t (un_key gold.(n) r) mult;
          upd_avg wr.un wr.un_u t (un_key p r) (-.mult)
        done;
        upd_avg wr.bias wr.bias_u t gold.(n) 1.;
        upd_avg wr.bias wr.bias_u t p (-1.)
      end
    end
  done

let pseudo_gradient_pass ~rd ~wr ~buf eg ~cand ~lr =
  let gold = eg.gold in
  Array.iteri
    (fun i n ->
      let cs = cand.(i) in
      let k = Array.length cs in
      if k > 0 then begin
        wr.steps <- wr.steps + 1;
        (* Softmax over the candidate set with every other node clamped
           to gold: a true pseudolikelihood gradient step. Unlike a
           perceptron update, the gradient is frequency-consistent — on
           inherently ambiguous examples (name synonyms) the weights
           converge to log-odds rather than oscillating between the
           synonyms. *)
        node_scores buf rd eg n gold cs;
        let scores = Array.sub buf.out 0 k in
        let gold_in = Array.exists (fun l -> l = gold.(n)) cs in
        let scores, cs =
          if gold_in then (scores, cs)
          else
            ( Array.append scores [| node_score rd eg n gold gold.(n) |],
              Array.append cs [| gold.(n) |] )
        in
        let mx = Array.fold_left Float.max neg_infinity scores in
        let exps = Array.map (fun s -> exp (s -. mx)) scores in
        let z = Array.fold_left ( +. ) 0. exps in
        let apply_l l coeff =
          (* coeff = lr * (1[l = gold] - P(l)) *)
          if Float.abs coeff > 1e-6 then begin
            Array.iter
              (fun fi ->
                let a = eg.pw_a.(fi) and b = eg.pw_b.(fi) in
                let r = eg.pw_rel.(fi) and mult = eg.pw_mult.(fi) in
                let key =
                  pw_key (if a = n then l else gold.(a)) r
                    (if b = n then l else gold.(b))
                in
                add wr.pw key (coeff *. mult))
              eg.touch_pw.(n);
            Array.iter
              (fun fi ->
                add wr.un (un_key l eg.un_rel.(fi)) (coeff *. eg.un_mult.(fi)))
              eg.touch_un.(n);
            add wr.bias l coeff
          end
        in
        Array.iteri
          (fun j l ->
            let p = exps.(j) /. z in
            let target = if l = gold.(n) then 1. else 0. in
            apply_l l (lr *. (target -. p)))
          cs
      end)
    eg.unknown

let finalize_average m =
  if m.steps > 0 then begin
    let t = float_of_int m.steps in
    Itbl.iter (fun k u -> add m.pw k (-.u /. t)) m.pw_u;
    Itbl.iter (fun k u -> add m.un k (-.u /. t)) m.un_u;
    Itbl.iter (fun k u -> add m.bias k (-.u /. t)) m.bias_u
  end

(* Initialize weights from log(1 + co-occurrence count) of each gold
   feature. The perceptron then refines discriminatively: features it
   never has to correct keep their generative estimate, which
   generalizes far better on sparse full-path relations than starting
   from zero. *)
let bump_count tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

(* Gold-feature co-occurrence counts over egs.(lo..hi) — pure per
   range, so ranges fan out across domains and merge in range order. *)
let count_range egs lo hi =
  let pw_c = Hashtbl.create 65536 in
  let un_c = Hashtbl.create 16384 in
  let bias_c = Hashtbl.create 512 in
  for g = lo to hi do
    let eg = egs.(g) in
    Array.iteri
      (fun fi a ->
        let b = eg.pw_b.(fi) in
        if eg.is_unknown.(a) || eg.is_unknown.(b) then
          bump_count pw_c
            (pw_key eg.gold.(a) eg.pw_rel.(fi) eg.gold.(b))
            eg.pw_mult.(fi))
      eg.pw_a;
    Array.iteri
      (fun fi i ->
        if eg.is_unknown.(i) then
          bump_count un_c (un_key eg.gold.(i) eg.un_rel.(fi)) eg.un_mult.(fi))
      eg.un_n;
    Array.iter (fun n -> bump_count bias_c eg.gold.(n) 1.) eg.unknown
  done;
  (pw_c, un_c, bias_c)

(* Turn accumulated gold-feature counts into initial weights. Split
   from the counting so the out-of-core path can merge per-shard
   counts into one accumulator before applying — count tables are
   O(features), never O(corpus). Per-key application order is
   irrelevant: each key is set once. *)
let apply_init m (pw_c, un_c, bias_c) ~style ~scale ~min_count =
  (* Naive-Bayes-style conditional estimates: a relation feature's
     weight is log P(feature | label) up to a label-independent
     constant — log(1+c(label,feature)) − log(1+c(label)) — and the
     bias is log(1+c(label)), the label prior. Without the −log c(l)
     normalization, frequent labels would get inflated weights on
     *every* feature, double-counting the prior once per factor.
     Features below the count threshold never enter the model: at this
     corpus scale, once-seen full paths (typically accidental
     cross-template spans) are pure variance. *)
  let label_total l =
    match style with
    | Naive_bayes -> 1. +. Option.value (Hashtbl.find_opt bias_c l) ~default:0.
    | _ -> 1.
  in
  let mc = float_of_int min_count in
  Hashtbl.iter
    (fun k c ->
      if c >= mc then begin
        (* A pairwise feature conditions on either end depending on
           which node is being scored; normalize by both labels'
           priors, averaged. *)
        let la = k lsr 42 and lb = k land 0x3FFFF in
        let norm = 0.5 *. (log (label_total la) +. log (label_total lb)) in
        add m.pw k (scale *. (log (1. +. c) -. norm))
      end)
    pw_c;
  Hashtbl.iter
    (fun k c ->
      if c >= mc then
        let l = k lsr 24 in
        add m.un k (scale *. (log (1. +. c) -. log (label_total l))))
    un_c;
  Hashtbl.iter (fun k c -> add m.bias k (scale *. log (1. +. c))) bias_c

let init_from_counts ?pool m egs ~style ~scale ~min_count =
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  let n = Array.length egs in
  let counts =
    if jobs <= 1 || n <= 1 then count_range egs 0 (n - 1)
    else begin
      let parts =
        Parallel.map ?pool
          (fun (lo, hi) -> count_range egs lo hi)
          (Parallel.chunk_ranges ~chunks:jobs n)
      in
      let pw_c = Hashtbl.create 65536 in
      let un_c = Hashtbl.create 16384 in
      let bias_c = Hashtbl.create 512 in
      Array.iter
        (fun (pw, un, bias) ->
          Hashtbl.iter (bump_count pw_c) pw;
          Hashtbl.iter (bump_count un_c) un;
          Hashtbl.iter (bump_count bias_c) bias)
        parts;
      (pw_c, un_c, bias_c)
    end
  in
  apply_init m counts ~style ~scale ~min_count

let mode_of cfg it =
  match cfg.trainer with
  | Structured -> `Structured
  | Pseudolikelihood -> `Pl
  | Pl_gradient -> `Grad
  | Mixed -> if it >= cfg.iterations - 2 then `Structured else `Pl

(* One graph's contribution to one pass. Reads weights from [rd],
   writes updates (and step advances) into [wr]. [buf] is the caller's
   scoring scratch, kept across graphs so it grows once to the largest
   node instead of being reallocated per graph. *)
let run_graph_pass cfg cands ~rd ~wr ~buf ~mode ~it ~cand eg =
  match mode with
  | `Pl -> pseudo_perceptron_pass ~rd ~wr ~buf eg ~cand
  | `Grad -> pseudo_gradient_pass ~rd ~wr ~buf eg ~cand ~lr:0.2
  | `Structured ->
      (* Time advances once per example — the textbook averaged
         perceptron; counting only mistakes would under-weight
         the stable consensus in the average. *)
      wr.steps <- wr.steps + 1;
      let pred =
        map_assignment ~cand cfg cands rd eg ~force_gold:true
          ~seed:(cfg.seed + it)
      in
      if pred <> eg.gold then update wr eg ~gold:eg.gold ~pred

(* How many time steps a graph consumes in one pass — known up front
   (it depends only on the candidate cache), which is what lets a
   parallel pass hand every graph the exact step number the sequential
   pass order would have given it. *)
let steps_of_graph mode ~cand =
  match mode with
  | `Structured -> 1
  | `Pl | `Grad ->
      Array.fold_left
        (fun acc cs -> if Array.length cs > 0 then acc + 1 else acc)
        0 cand

(* Graphs processed per domain between two merge barriers of a
   parallel pass. Small keeps the weights nearly as fresh as online
   training (staleness is bounded by jobs * this); large amortizes the
   barrier. 4 measured well on synthetic corpora. *)
let round_graphs_per_domain = 4

(* One shuffled pass over [order] (indices into [egs]/[cand_cache]).
   Shared by the in-memory trainer (order spans the whole corpus) and
   the streaming trainer (order spans one shard), so both produce the
   same update sequence for the same order. *)
let run_pass ?pool cfg cands m ~mode ~it ~egs ~cand_cache ~order =
  let jobs = match pool with Some p -> Parallel.jobs p | None -> 1 in
  let n = Array.length order in
  if jobs <= 1 || n <= 1 then begin
    let buf = scratch () in
    Array.iter
      (fun gi ->
        run_graph_pass cfg cands ~rd:m ~wr:m ~buf ~mode ~it
          ~cand:cand_cache.(gi) egs.(gi))
      order
  end
  else begin
    (* Parallel pass: synchronized rounds over the shuffled order.
       Each domain trains a contiguous slice of the round against
       the weights as of the round barrier (a synchronous-minibatch
       view of the same objective), writing into a private delta;
       deltas merge in slice order, and each graph is assigned the
       step number the sequential pass order would have given it —
       so the run is reproducible for a fixed job count, and the
       averaged-perceptron clock is unchanged. *)
    let prefix = Array.make (n + 1) m.steps in
    for k = 0 to n - 1 do
      prefix.(k + 1) <-
        prefix.(k) + steps_of_graph mode ~cand:cand_cache.(order.(k))
    done;
    let per_round = jobs * round_graphs_per_domain in
    let start = ref 0 in
    while !start < n do
      let base = !start in
      let stop = min n (base + per_round) in
      let slices = Parallel.chunk_ranges ~chunks:jobs (stop - base) in
      let deltas =
        Parallel.map ?pool
          (fun (lo, hi) ->
            let wr = delta_of m and buf = scratch () in
            for k = base + lo to base + hi do
              let gi = order.(k) in
              wr.steps <- prefix.(k);
              run_graph_pass cfg cands ~rd:m ~wr ~buf ~mode ~it
                ~cand:cand_cache.(gi) egs.(gi)
            done;
            wr)
          slices
      in
      Array.iter (merge_delta m) deltas;
      m.steps <- prefix.(stop);
      start := stop
    done
  end

let train ?pool cfg cands graphs =
  let m = create ~symbols:(Candidates.symbols cands) () in
  let egs = Array.of_list (List.map (encode m) graphs) in
  (match cfg.init with
  | No_init -> ()
  | (Log_counts | Naive_bayes) as style ->
      init_from_counts ?pool m egs ~style ~scale:cfg.init_scale
        ~min_count:cfg.init_min_count);
  let rng = Random.State.make [| cfg.seed |] in
  (* Candidate sets depend only on the graph and the (static) counts,
     so compute them once per graph, not once per iteration. This also
     front-loads every intern the passes will need, leaving the
     interners read-only during parallel rounds. *)
  let cand_cache =
    Array.map (fun eg -> candidate_ids cfg cands m eg ~force_gold:true) egs
  in
  (* Force the lazy global-top cache before any fan-out. *)
  ignore (Candidates.global_top cands 1);
  let n = Array.length egs in
  for it = 0 to cfg.iterations - 1 do
    let order = Array.init n Fun.id in
    shuffle rng order;
    run_pass ?pool cfg cands m ~mode:(mode_of cfg it) ~it ~egs ~cand_cache
      ~order
  done;
  if cfg.averaged then finalize_average m;
  m

(* {2 Out-of-core training}

   The streaming trainer never holds more than one shard's graphs.
   Within a shard the pass is the same machinery as [train]; across
   shards the only coupling is the weight tables and the step clock,
   both of which a checkpoint captures exactly. Shuffling is per
   (iteration, shard) with an rng *derived* from those coordinates —
   no long-lived rng state survives a shard boundary, so resuming at
   a boundary replays nothing and needs no rng serialization to be
   bit-exact. The trade against [train] is the shuffle radius: graphs
   only mix within their shard, which matters as little as the shard
   size is large. *)

let train_stream ?pool cfg cands ~n_shards ~graphs_of_shard ?from ?on_shard ()
    =
  if n_shards <= 0 then invalid_arg "Fast.train_stream: n_shards must be > 0";
  let m, start_it, start_shard =
    match from with
    | Some (m, it, s) ->
        if s < 0 || s >= n_shards || it < 0 then
          invalid_arg "Fast.train_stream: cursor out of range";
        (m, it, s)
    | None ->
        let m = create ~symbols:(Candidates.symbols cands) () in
        (match cfg.init with
        | No_init -> ()
        | (Log_counts | Naive_bayes) as style ->
            (* Counting pass, one shard at a time; merged counts are
               O(features). Merge order per key is commutative float
               addition in shard order — same order every run. *)
            let pw_c = Hashtbl.create 65536 in
            let un_c = Hashtbl.create 16384 in
            let bias_c = Hashtbl.create 512 in
            for s = 0 to n_shards - 1 do
              let egs =
                Array.of_list (List.map (encode m) (graphs_of_shard s))
              in
              let pw, un, bias = count_range egs 0 (Array.length egs - 1) in
              Hashtbl.iter (bump_count pw_c) pw;
              Hashtbl.iter (bump_count un_c) un;
              Hashtbl.iter (bump_count bias_c) bias
            done;
            apply_init m (pw_c, un_c, bias_c) ~style ~scale:cfg.init_scale
              ~min_count:cfg.init_min_count);
        (m, 0, 0)
  in
  ignore (Candidates.global_top cands 1);
  if start_it < cfg.iterations then
    for it = start_it to cfg.iterations - 1 do
      let mode = mode_of cfg it in
      for s = (if it = start_it then start_shard else 0) to n_shards - 1 do
        let graphs = graphs_of_shard s in
        let egs = Array.of_list (List.map (encode m) graphs) in
        let cand_cache =
          Array.map (fun eg -> candidate_ids cfg cands m eg ~force_gold:true)
            egs
        in
        let n = Array.length egs in
        if n > 0 then begin
          let order = Array.init n Fun.id in
          shuffle (Random.State.make [| cfg.seed; 0x5eed; it; s |]) order;
          run_pass ?pool cfg cands m ~mode ~it ~egs ~cand_cache ~order
        end;
        match on_shard with None -> () | Some f -> f ~it ~shard:s m
      done
    done;
  if cfg.averaged then finalize_average m;
  m

(* Mapped weight tables checksum their file-backed payloads lazily;
   forcing the check at every inference entry point means corruption
   surfaces as a structured diagnostic before any weight is trusted,
   and the hot loops below stay check-free. *)
let verify_tables m =
  Itbl.ensure_verified m.pw;
  Itbl.ensure_verified m.un;
  Itbl.ensure_verified m.bias

let storage m =
  match (Itbl.storage m.pw, Itbl.storage m.un, Itbl.storage m.bias) with
  | `Heap, `Heap, `Heap -> `Heap
  | _ -> `Mapped

let predict cfg cands m g =
  verify_tables m;
  let eg = encode m g in
  let assignment =
    map_assignment cfg cands m eg ~force_gold:false ~seed:cfg.seed
  in
  Array.map (Symbols.label_string m.syms) assignment

(* Batch prediction: encoding and candidate lookup intern strings into
   the model's (shared, unsynchronized) symbol table, so they run up
   front on the calling domain; once every string the passes touch is
   interned, inference per graph is pure reads and fans out over the
   pool. Each graph is seeded exactly as [predict] seeds it, and
   results come back in input order — identical output for every job
   count. *)
let predict_batch ?pool cfg cands m graphs =
  verify_tables m;
  let prepped =
    Array.of_list
      (List.map
         (fun g ->
           let eg = encode m g in
           (eg, candidate_ids cfg cands m eg ~force_gold:false))
         graphs)
  in
  (match Candidates.global_top_ids cands 1 with
  | [ _ ] -> ()
  | _ -> ignore (Symbols.label m.syms "?"));
  let out =
    Parallel.map ?pool
      (fun (eg, cand) ->
        let assignment =
          map_assignment ~cand cfg cands m eg ~force_gold:false ~seed:cfg.seed
        in
        Array.map (Symbols.label_string m.syms) assignment)
      prepped
  in
  Array.to_list out

let top_k cfg cands m g ~node ~k =
  verify_tables m;
  let eg = encode m g in
  let assignment =
    map_assignment cfg cands m eg ~force_gold:false ~seed:cfg.seed
  in
  let touching = Graph.touching g in
  let cs =
    Candidates.ids_for_node cands g touching.(node) node
      ~max:(max k cfg.max_candidates)
  in
  List.map
    (fun li ->
      (Symbols.label_string m.syms li, node_score m eg node assignment li))
    cs
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)
  |> List.filteri (fun i _ -> i < k)

let export_weights m =
  let out = Model.create () in
  let lab = Symbols.label_string m.syms and rel = Symbols.rel_string m.syms in
  Itbl.iter
    (fun key w ->
      if w <> 0. then
        let la = key lsr 42 in
        let r = (key lsr 18) land 0xFFFFFF in
        let lb = key land 0x3FFFF in
        Model.add out (Model.pairwise_feat ~la:(lab la) ~rel:(rel r) ~lb:(lab lb)) w)
    m.pw;
  Itbl.iter
    (fun key w ->
      if w <> 0. then
        let l = key lsr 24 in
        let r = key land 0xFFFFFF in
        Model.add out (Model.unary_feat ~l:(lab l) ~rel:(rel r)) w)
    m.un;
  Itbl.iter
    (fun l w -> if w <> 0. then Model.add out (Model.bias_feat ~l:(lab l)) w)
    m.bias;
  out

type dump = {
  d_labels : string list;
  d_rels : string list;
  d_pw : (int * float) list;
  d_un : (int * float) list;
  d_bias : (int * float) list;
}

(* Key-sorted: the keys sort as an unboxed int array (no generic
   compare on boxed pairs), and the model writer emits the list as-is,
   so the canonical on-disk order costs one int sort here. *)
let tbl_list tbl =
  let n = Itbl.length tbl in
  let keys = Array.make (max 1 n) 0 in
  let i = ref 0 in
  Itbl.iter
    (fun k _ ->
      keys.(!i) <- k;
      incr i)
    tbl;
  let keys = if n = Array.length keys then keys else Array.sub keys 0 n in
  Array.sort Int.compare keys;
  Array.fold_right (fun k acc -> (k, Itbl.get tbl k) :: acc) keys []

let dump m =
  let snap = Symbols.snapshot m.syms in
  {
    d_labels = Array.to_list snap.Symbols.s_labels;
    d_rels = Array.to_list snap.Symbols.s_rels;
    d_pw = tbl_list m.pw;
    d_un = tbl_list m.un;
    d_bias = tbl_list m.bias;
  }

let restore d =
  let m = create () in
  List.iter (fun s -> ignore (Symbols.label m.syms s)) d.d_labels;
  List.iter (fun s -> ignore (Symbols.rel m.syms s)) d.d_rels;
  (* Weight keys index the tables above; a key whose unpacked ids fall
     outside them means a mangled file, and would otherwise surface
     much later as a wrong prediction or an array bound. *)
  let nl = Symbols.num_labels m.syms and nr = Symbols.num_rels m.syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  List.iter
    (fun (k, v) ->
      chk "pairwise"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k;
      Itbl.set m.pw k v)
    d.d_pw;
  List.iter
    (fun (k, v) ->
      chk "unary" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k;
      Itbl.set m.un k v)
    d.d_un;
  List.iter
    (fun (k, v) ->
      chk "bias" (k >= 0 && k < nl) k;
      Itbl.set m.bias k v)
    d.d_bias;
  m

(* Full trainer state: [dump] plus the averaging accumulators and the
   step clock — everything a mid-training checkpoint needs for the
   resumed run to make bit-identical updates. Values round-trip as
   exact IEEE-754 bits through the v4 checkpoint writer, so restoring
   and continuing equals never having stopped. *)
type full_dump = {
  f_weights : dump;
  f_pw_u : (int * float) list;
  f_un_u : (int * float) list;
  f_bias_u : (int * float) list;
  f_steps : int;
}

let dump_full m =
  {
    f_weights = dump m;
    f_pw_u = tbl_list m.pw_u;
    f_un_u = tbl_list m.un_u;
    f_bias_u = tbl_list m.bias_u;
    f_steps = m.steps;
  }

let restore_full f =
  let m = restore f.f_weights in
  let nl = Symbols.num_labels m.syms and nr = Symbols.num_rels m.syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  List.iter
    (fun (k, v) ->
      chk "pairwise-accumulator"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k;
      Itbl.set m.pw_u k v)
    f.f_pw_u;
  List.iter
    (fun (k, v) ->
      chk "unary-accumulator" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k;
      Itbl.set m.un_u k v)
    f.f_un_u;
  List.iter
    (fun (k, v) ->
      chk "bias-accumulator" (k >= 0 && k < nl) k;
      Itbl.set m.bias_u k v)
    f.f_bias_u;
  if f.f_steps < 0 then failwith "negative step counter";
  m.steps <- f.f_steps;
  m

type mapped_table = {
  mt_keys : int array;
  mt_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  mt_verify : unit -> unit;
}

(* [restore], but the weight values stay in the mapped file: only the
   symbol tables and the probe indexes are built on the heap. Key
   validation is identical to [restore] — it runs eagerly (the key
   arrays were copied out of the file by the loader), while the float
   payloads are checked lazily by each table's [mt_verify]. *)
let restore_mapped ~labels ~rels ~pw ~un ~bias =
  (* Not [create ()]: its presized training tables (the weight tables
     this function immediately replaces, and the averaging
     accumulators a read-only model never touches) are several MB of
     zeroed arrays — real time on what should be an O(header) load. *)
  let syms = Symbols.create () in
  List.iter (fun s -> ignore (Symbols.label syms s)) labels;
  List.iter (fun s -> ignore (Symbols.rel syms s)) rels;
  let nl = Symbols.num_labels syms and nr = Symbols.num_rels syms in
  let chk what ok k =
    if not ok then Printf.ksprintf failwith "%s weight key %d out of range" what k
  in
  Array.iter
    (fun k ->
      chk "pairwise"
        (k >= 0 && k lsr 42 < nl
        && (k lsr 18) land 0xFFFFFF < nr
        && k land 0x3FFFF < nl)
        k)
    pw.mt_keys;
  Array.iter
    (fun k -> chk "unary" (k >= 0 && k lsr 24 < nl && k land 0xFFFFFF < nr) k)
    un.mt_keys;
  Array.iter (fun k -> chk "bias" (k >= 0 && k < nl) k) bias.mt_keys;
  let tbl t =
    Itbl.of_sorted_mapped ~keys:t.mt_keys ~vals:t.mt_vals ~verify:t.mt_verify
  in
  {
    syms;
    pw = tbl pw;
    un = tbl un;
    bias = tbl bias;
    pw_u = Itbl.create 0;
    un_u = Itbl.create 0;
    bias_u = Itbl.create 0;
    steps = 0;
  }

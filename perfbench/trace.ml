(* Span recorder for the traced run.

   The benchmark wraps each call it makes into a layer's public
   functions in [span]. Spans nest on the calling domain — the traced
   run is sequential, so every span opens and closes on one stack —
   and are kept in memory until [write] dumps them at the end of the
   run. A span's self time is its duration minus the time its direct
   children cover; self minor words are counted the same way. With
   tracing off, [span] is a plain call. *)

let now_ns () = Monotonic_clock.now ()
let now () = Int64.to_float (now_ns ()) *. 1e-9

type span = {
  name : string;
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** request id shared by the spans of one request; 0 if none *)
  t0 : int64;
  t1 : int64;
  items : int;
}

type agg = {
  mutable self_ns : int64;
  mutable total_ns : int64;
  mutable items : int;
  mutable words : float;
  mutable calls : int;
}

type frame = { fid : int; mutable child_ns : int64; mutable child_words : float }

let on = ref false
let spans : span list ref = ref []
let next_id = ref 1
let stack : frame list ref = ref []
let table : (string, agg) Hashtbl.t = Hashtbl.create 32

let agg name =
  match Hashtbl.find_opt table name with
  | Some a -> a
  | None ->
      let a = { self_ns = 0L; total_ns = 0L; items = 0; words = 0.; calls = 0 } in
      Hashtbl.add table name a;
      a

let reset () =
  spans := [];
  next_id := 1;
  stack := [];
  Hashtbl.reset table

(* Run [f] with tracing on, from an empty table. *)
let record f =
  reset ();
  on := true;
  Fun.protect ~finally:(fun () -> on := false) f

let span ?(req = 0) ?(items = fun _ -> 0) name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p.fid | [] -> 0 in
    let fr = { fid = id; child_ns = 0L; child_words = 0. } in
    stack := fr :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = now_ns () in
    let finish n =
      let t1 = now_ns () in
      let w = Gc.minor_words () -. w0 in
      stack := List.tl !stack;
      let dur = Int64.sub t1 t0 in
      (match !stack with
      | p :: _ ->
          p.child_ns <- Int64.add p.child_ns dur;
          p.child_words <- p.child_words +. w
      | [] -> ());
      let a = agg name in
      a.self_ns <- Int64.add a.self_ns (Int64.sub dur fr.child_ns);
      a.total_ns <- Int64.add a.total_ns dur;
      a.words <- a.words +. (w -. fr.child_words);
      a.items <- a.items + n;
      a.calls <- a.calls + 1;
      spans := { name; id; parent; req; t0; t1; items = n } :: !spans
    in
    match f () with
    | r ->
        finish (items r);
        r
    | exception e ->
        finish 0;
        raise e
  end

(* A work count charged to [name] without a span of its own. *)
let count name n = if !on then (agg name).items <- (agg name).items + n

let self_s name =
  match Hashtbl.find_opt table name with
  | Some a -> Int64.to_float a.self_ns *. 1e-9
  | None -> 0.

let total_s name =
  match Hashtbl.find_opt table name with
  | Some a -> Int64.to_float a.total_ns *. 1e-9
  | None -> 0.

let items name =
  match Hashtbl.find_opt table name with Some a -> a.items | None -> 0

let words name =
  match Hashtbl.find_opt table name with Some a -> a.words | None -> 0.

let names () = Hashtbl.fold (fun k _ acc -> k :: acc) table [] |> List.sort compare

(* One JSON object per span, oldest first. *)
let write path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"name\":%S,\"id\":%d,\"parent\":%d,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"items\":%d}\n"
        s.name s.id s.parent s.req s.t0 s.t1 s.items)
    (List.rev !spans);
  close_out oc

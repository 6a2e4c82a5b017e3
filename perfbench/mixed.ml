(* serve-mixed: the real [pigeon serve] daemon under a mixed load.

   The daemon runs in its own process, started from the built binary
   with [Unix.create_process] (never [fork]: the benchmark has domains
   by then). The load generator is this one thread: it sends each
   request at its due time and reads replies with [Unix.select] over
   its connections.

   Phase (a) is an open loop of seeded Poisson arrivals at [rate]:
   one-shot predicts of held-out files (70%), session edits replaying
   [Corpus.Gen.edit_trace] on a second connection (20%, sessions belong
   to one connection), [similar] (5%) and hostile requests that must
   come back as the structured error the in-process engine gives
   (5%), plus a [reload] every [reload_every] seconds. Latency is timed
   from each request's due time, so a stalled generator or daemon
   charges the wait to every request behind it. Phase (b) is a closed
   loop of two connections, each keeping [window] predicts in flight.
   The untraced run alternates stretches of the two phases. *)

open Common

let binary = Filename.concat "_build" (Filename.concat "default" "bin/pigeon_cli.exe")
let serve_files = 200

(* Predicts carry files of a second corpus the models never saw. Each
   file is predicted about ten times in the open loop, so that its
   fastest reply is taken over many seconds of a host whose speed
   swings. *)
let request_files = 50
let w2v_files = 30
let rate = 60.
let reload_every = 2.5
let open_share = 0.5

(* The latency limit of [predict_slo_share]. *)
let slo_ms = 100.
let js = Pigeon.Lang.javascript
let session = "buffer.js"

(* ---------- daemon ---------- *)

type daemon = { pid : int; sock : string }

(* Daemons started and not yet stopped; [kill_live] ends them when a run
   stops early. *)
let live = ref []

let kill_live () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

let rec restart_on_eintr f =
  try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart_on_eintr f

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
      Unix.close fd;
      raise e

let write_line fd line =
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off =
    if off < n then go (off + restart_on_eintr (fun () -> Unix.write_substring fd s off (n - off)))
  in
  go 0

(* A connection with a read buffer; [read] returns the complete lines
   that arrived. *)
type conn = { fd : Unix.file_descr; mutable partial : string }

let buf = Bytes.create 65536

let read c =
  let n = restart_on_eintr (fun () -> Unix.read c.fd buf 0 (Bytes.length buf)) in
  check (n > 0) "the daemon closed a connection";
  let parts = String.split_on_char '\n' (c.partial ^ Bytes.sub_string buf 0 n) in
  let rec split = function
    | [ last ] ->
        c.partial <- last;
        []
    | l :: rest -> l :: split rest
    | [] -> []
  in
  split parts

(* One request, one reply, blocking. *)
let roundtrip c line =
  write_line c.fd line;
  let rec wait () = match read c with l :: _ -> l | [] -> wait () in
  wait ()

let status_of pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> None
  | _, st -> Some st

let start_daemon ~dir ~jobs ~tag =
  check (Sys.file_exists binary) "%s is missing: build bin/pigeon_cli.exe first" binary;
  let sock = Filename.concat dir (tag ^ ".sock") in
  let log = Unix.openfile (Filename.concat dir (tag ^ ".log")) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let env =
    Array.of_list
      (List.filter
         (fun kv -> not (String.length kv >= 12 && String.sub kv 0 12 = "PIGEON_JOBS="))
         (Array.to_list (Unix.environment ())))
  in
  let args =
    [| binary; "serve"; "--model"; Filename.concat dir "model.crf"; "--w2v";
       Filename.concat dir "model.w2v"; "--socket"; sock; "--jobs"; string_of_int jobs |]
  in
  let pid = Unix.create_process_env binary args env Unix.stdin log log in
  live := pid :: !live;
  Unix.close log;
  let d = { pid; sock } in
  (* Ready when a ping is answered. *)
  let deadline = Trace.now () +. 30. in
  let rec wait () =
    (match status_of pid with
    | Some _ -> raise (Check_failed "the daemon exited during start-up")
    | None -> ());
    match connect sock with
    | fd ->
        let c = { fd; partial = "" } in
        let reply = roundtrip c "{\"op\":\"ping\",\"id\":0}" in
        Unix.close fd;
        check (Serve.Protocol.reply_ok reply) "ping answered %s" reply
    | exception Unix.Unix_error _ ->
        check (Trace.now () < deadline) "the daemon did not answer a ping in 30 s";
        Unix.sleepf 0.01;
        wait ()
  in
  wait ();
  d

(* SIGTERM drains and stops the daemon: it must exit 0 and remove its
   socket. *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigterm;
  let _, st = restart_on_eintr (fun () -> Unix.waitpid [] d.pid) in
  live := List.filter (( <> ) d.pid) !live;
  check (st = Unix.WEXITED 0) "the daemon did not exit 0 on SIGTERM";
  check (not (Sys.file_exists d.sock)) "the daemon left its socket %s behind" d.sock

(* ---------- set-up ---------- *)

type state = {
  test : string array;  (** held-out files the predicts carry *)
  words : string array;  (** vocabulary of the word2vec model, for [similar] *)
  trace : string array;  (** editor buffers, one per edit step *)
  model : Crf.Train.model;  (** the daemon's CRF model, loaded mapped *)
  engine : Serve.Engine.t;  (** in-process engine over the same model files *)
  daemon : daemon;
}

let setup ~seed ~dir ~jobs () =
  let train, _ = split_corpus js ~n:serve_files ~seed in
  let test =
    sources js ~n:request_files ~seed:(seed + 1_000_003) |> List.map snd |> Array.of_list
  in
  let graphs, _ =
    Pigeon.Task.graphs_of_sources_report ~repr:(repr_of js) ~lang:js
      ~policy:Pigeon.Graphs.Locals train
  in
  let pool = Parallel.get_pool () in
  let model =
    Crf.Train.train ?pool:(if Parallel.jobs pool > 1 then Some pool else None) graphs
  in
  Crf.Serialize.save model (Filename.concat dir "model.crf");
  let elems, _ =
    Pigeon.Ingest.run
      ~f:(fun _ src ->
        Pigeon.W2v_task.pairs_of_source ~lang:js
          ~mode:(Pigeon.W2v_task.Paths (repr_of js)) src)
      (List.filteri (fun i _ -> i < w2v_files) train)
  in
  let pairs =
    List.concat_map (fun (w, cs) -> List.map (fun c -> (w, c)) cs) (List.concat elems)
  in
  let w2v = Word2vec.Sgns.train pairs in
  Word2vec.Serialize.save w2v (Filename.concat dir "model.w2v");
  let words =
    Array.init (Word2vec.Vocab.size w2v.Word2vec.Sgns.words) (Word2vec.Vocab.word w2v.Word2vec.Sgns.words)
  in
  let mapped =
    match Crf.Serialize.load_mapped (Filename.concat dir "model.crf") with
    | Ok (m, _) -> m
    | Error d -> raise (Check_failed (Lexkit.Diag.to_string d))
  in
  let engine = Serve.Engine.create ~w2v ~model:mapped () in
  let trace =
    Array.of_list
      (Corpus.Gen.edit_trace ~steps:60
         (gen_config ~n:1 ~seed)
         js.Pigeon.Lang.render_lang)
  in
  let daemon = start_daemon ~dir ~jobs ~tag:"serve" in
  { test; words; trace; model = mapped; engine; daemon }

(* ---------- requests ---------- *)

type kind = Predict | Edit | Open | Similar | Hostile of string | Reload | Closed_predict

let obj fields = Serve.Json.to_string (Serve.Json.Obj fields)
let num i = Serve.Json.Num (float_of_int i)
let str s = Serve.Json.Str s

let predict_line id code =
  obj [ ("op", str "predict"); ("id", num id); ("lang", str js.Pigeon.Lang.name); ("code", str code) ]

(* Hostile requests, each with an id so its reply can be matched. *)
let hostile_lines =
  [|
    (fun id -> predict_line id ("var x = " ^ String.make 5_000 '(' ^ "1"));
    (fun id -> predict_line id "\x00\x01\xfe\xff garbage }{");
    (fun id -> obj [ ("op", str "predict"); ("id", num id); ("lang", str "Klingon"); ("code", str "x") ]);
    (fun id -> obj [ ("op", str "frobnicate"); ("id", num id) ]);
  |]

(* The error kind the in-process engine answers a line with. *)
let expected_error engine line =
  match Serve.Protocol.request_of_line line with
  | Error (_, e) -> e.Serve.Protocol.kind
  | Ok r -> (
      match Serve.Protocol.reply_error (Serve.Engine.handle engine r) with
      | Some e -> e.Serve.Protocol.kind
      | None -> raise (Check_failed ("the engine accepts a hostile request: " ^ line)))

type event = {
  due : float;
  id : int;
  kind : kind;
  on_b : bool;  (** sent on the session connection *)
  file : int;  (** index of the predicted file in [st.test]; -1 for other requests *)
  line : string;
}

(* The seeded open-loop schedule over [duration] seconds. *)
let schedule st ~seed ~duration ~first_id =
  let rng = Random.State.make [| seed; 0xa11 |] in
  let id = ref first_id in
  let next () = incr id; !id in
  let test = st.test in
  (* Predicts walk the files in a seeded order, so each gets its share. *)
  let order = Array.init (Array.length test) Fun.id in
  for i = Array.length order - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  let predicts = ref 0 in
  let edit_step = ref 0 in
  let open_ev =
    let i = next () in
    { due = 0.; id = i; kind = Open; on_b = true; file = -1;
      line = obj [ ("op", str "open"); ("id", num i); ("session", str session);
                   ("lang", str js.Pigeon.Lang.name); ("code", str st.trace.(0)) ] }
  in
  let rec arrivals t acc =
    let t = t +. (-.log (1. -. Random.State.float rng 1.) /. rate) in
    if t >= duration then List.rev acc
    else begin
      let i = next () in
      let u = Random.State.float rng 1. in
      let ev =
        if u < 0.70 then begin
          let file = order.(!predicts mod Array.length order) in
          incr predicts;
          { due = t; id = i; kind = Predict; on_b = false; file; line = predict_line i test.(file) }
        end
        else if u < 0.90 then begin
          edit_step := (!edit_step mod (Array.length st.trace - 1)) + 1;
          { due = t; id = i; kind = Edit; on_b = true; file = -1;
            line = obj [ ("op", str "edit"); ("id", num i); ("session", str session);
                         ("code", str st.trace.(!edit_step)) ] }
        end
        else if u < 0.95 then
          { due = t; id = i; kind = Similar; on_b = false; file = -1;
            line = obj [ ("op", str "similar"); ("id", num i);
                         ("word", str st.words.(Random.State.int rng (Array.length st.words)));
                         ("k", num 5) ] }
        else begin
          let line = hostile_lines.(Random.State.int rng (Array.length hostile_lines)) i in
          { due = t; id = i; kind = Hostile (expected_error st.engine line); on_b = false;
            file = -1; line }
        end
      in
      arrivals t (ev :: acc)
    end
  in
  let reloads =
    List.init (int_of_float (duration /. reload_every)) (fun k ->
        let i = next () in
        { due = float_of_int (k + 1) *. reload_every -. 0.001; id = i; kind = Reload;
          on_b = false; file = -1; line = obj [ ("op", str "reload"); ("id", num i) ] })
  in
  let evs = open_ev :: List.merge (fun a b -> compare a.due b.due) (arrivals 0. []) reloads in
  (Array.of_list evs, !id)

let reply_id line =
  match Serve.Json.parse line with
  | Ok j -> (match Serve.Json.member "id" j with Some v -> Serve.Json.int_opt v | None -> None)
  | Error _ -> None

(* ---------- the open loop ---------- *)

type outcome = {
  mutable failures : string list;
  lat : (kind, float list) Hashtbl.t;  (** ms from due time, successful replies *)
  mutable lateness : float list;  (** s the generator sent behind schedule *)
  replies : (int, string) Hashtbl.t;  (** every reply, by id *)
  mutable slo_ok : int;
  mutable predicts : int;
  best : float array;  (** per file: its fastest successful predict, ms *)
}

let fail o fmt = Printf.ksprintf (fun m -> o.failures <- m :: o.failures) fmt

let record o kind ms =
  Hashtbl.replace o.lat kind (ms :: Option.value (Hashtbl.find_opt o.lat kind) ~default:[])

let judge o ev reply ms =
  let err = Serve.Protocol.reply_error reply in
  match (ev.kind, err) with
  | Hostile want, Some e ->
      if e.Serve.Protocol.kind <> want then
        fail o "hostile request %d answered %s, expected %s" ev.id e.Serve.Protocol.kind want
  | Hostile _, None -> fail o "hostile request %d accepted" ev.id
  | k, None ->
      record o k ms;
      if k = Predict then begin
        o.predicts <- o.predicts + 1;
        o.best.(ev.file) <- Float.min o.best.(ev.file) ms;
        if ms <= slo_ms then o.slo_ok <- o.slo_ok + 1
      end
  | k, Some e ->
      if k = Predict then o.predicts <- o.predicts + 1;
      fail o "request %d answered %s: %s" ev.id e.Serve.Protocol.kind e.Serve.Protocol.msg

let new_outcome files =
  { failures = []; lat = Hashtbl.create 8; lateness = []; replies = Hashtbl.create 1024;
    slo_ok = 0; predicts = 0; best = Array.make files infinity }

let open_loop o (a, b) events =
  let pending = Hashtbl.create 256 in
  let t0 = Trace.now () in
  let n = Array.length events in
  let next = ref 0 in
  let last_due = if n = 0 then 0. else events.(n - 1).due in
  let drain_deadline = t0 +. last_due +. 10. in
  let handle c =
    List.iter
      (fun line ->
        let now = Trace.now () in
        match reply_id line with
        | Some id when Hashtbl.mem pending id ->
            let ev = Hashtbl.find pending id in
            Hashtbl.remove pending id;
            Hashtbl.replace o.replies id line;
            judge o ev line ((now -. (t0 +. ev.due)) *. 1000.)
        | _ -> fail o "unmatched reply %s" (String.sub line 0 (min 80 (String.length line))))
      (read c)
  in
  let rec loop () =
    let now = Trace.now () in
    while !next < n && t0 +. events.(!next).due <= now do
      let ev = events.(!next) in
      incr next;
      Hashtbl.replace pending ev.id ev;
      o.lateness <- (Trace.now () -. (t0 +. ev.due)) :: o.lateness;
      write_line (if ev.on_b then b else a).fd ev.line
    done;
    if (!next < n || Hashtbl.length pending > 0) && now < drain_deadline then begin
      let timeout =
        if !next < n then Float.max 0. (t0 +. events.(!next).due -. Trace.now ()) else 0.1
      in
      let ready, _, _ =
        try Unix.select [ a.fd; b.fd ] [] [] timeout
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun fd -> handle (if fd = a.fd then a else b)) ready;
      loop ()
    end
  in
  loop ();
  Hashtbl.iter (fun id _ -> fail o "request %d got no reply" id) pending

(* ---------- the closed loop ---------- *)

(* The closed loop: each connection keeps [window] predicts in flight
   and sends the next one when a reply arrives. Request [i] predicts
   [files.(i mod n)]. With one request in flight per connection the rate
   measured how fast the host woke threads more than the daemon's work
   (it spread by half its median over five seeds); a window keeps the
   batcher fed. *)
let window = 4

(* Records into [o]; returns the predicts per second and the last
   request id. *)
let closed_loop o ~seconds ~first_id conns files =
  let file_of i = i mod Array.length files in
  let id = ref first_id in
  let in_flight = Hashtbl.create 16 in
  let send c =
    incr id;
    let line =
      Trace.span "serve.json" ~items:(fun _ -> 1) (fun () -> predict_line !id files.(file_of !id))
    in
    Hashtbl.replace in_flight !id (Trace.now ());
    Trace.span "serve.wire" ~req:!id ~items:(fun () -> 1) (fun () -> write_line c.fd line)
  in
  let t0 = Trace.now () in
  let t_end = t0 +. seconds in
  let completed = ref 0 in
  List.iter (fun c -> for _ = 1 to window do send c done) conns;
  while Hashtbl.length in_flight > 0 do
    let ready, _, _ =
      Trace.span "serve.wire" (fun () ->
          try Unix.select (List.map (fun c -> c.fd) conns) [] [] 10.
          with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], []))
    in
    check (ready <> []) "a closed-loop predict got no reply in 10 s";
    List.iter
      (fun fd ->
        let c = List.find (fun c -> c.fd = fd) conns in
        let lines = Trace.span "serve.wire" (fun () -> read c) in
        List.iter
          (fun line ->
            let ok, rid =
              Trace.span "serve.json" (fun () ->
                  let rid = reply_id line in
                  (Serve.Protocol.reply_ok line, rid))
            in
            match rid with
            | Some rid when Hashtbl.mem in_flight rid ->
                let sent = Hashtbl.find in_flight rid in
                Hashtbl.remove in_flight rid;
                if ok then begin
                  incr completed;
                  record o Closed_predict ((Trace.now () -. sent) *. 1000.);
                  Hashtbl.replace o.replies rid line
                end
                else fail o "closed-loop predict %d answered %s" rid line;
                if Trace.now () < t_end then send c
            | _ -> fail o "unmatched closed-loop reply %s" line)
          lines)
      ready
  done;
  (float_of_int !completed /. (Trace.now () -. t0), !id)

(* ---------- checks ---------- *)

let code_of line =
  match Serve.Json.parse line with
  | Ok j -> Option.value (Serve.Json.string_field "code" j) ~default:""
  | Error _ -> ""

let direct st line =
  match Serve.Protocol.request_of_line line with
  | Ok r -> Serve.Engine.handle st.engine r
  | Error _ -> ""

(* A sample of predict replies is byte-equal to the in-process engine
   on the same model; a sample of session edits predicts what a
   one-shot predict of the same buffer does (the session reply is the
   one-shot reply plus a trailing "session" field). *)
let check_samples st o events =
  Array.iter
    (fun ev ->
      match (ev.kind, Hashtbl.find_opt o.replies ev.id) with
      | (Predict | Closed_predict), Some reply when ev.id mod 10 = 0 ->
          if reply <> direct st ev.line then
            fail o "predict %d differs from Engine.handle" ev.id
      | Edit, Some reply when ev.id mod 5 = 0 && Serve.Protocol.reply_ok reply ->
          let one = direct st (predict_line ev.id (code_of ev.line)) in
          let prefix = String.sub one 0 (String.length one - 1) ^ "," in
          if not (String.starts_with ~prefix reply) then
            fail o "session edit %d differs from a one-shot predict of its buffer" ev.id
      | _ -> ())
    events

let stats c id =
  let reply = roundtrip c (obj [ ("op", str "stats"); ("id", num id) ]) in
  match Serve.Json.parse reply with
  | Ok j -> (
      match Serve.Json.member "stats" j with
      | Some s -> s
      | None -> raise (Check_failed ("stats answered " ^ reply)))
  | Error e -> raise (Check_failed ("stats reply: " ^ e))

let stat_int s path =
  let rec go j = function
    | [ k ] -> Option.value (Serve.Json.int_field k j) ~default:0
    | k :: rest -> (match Serve.Json.member k j with Some j -> go j rest | None -> 0)
    | [] -> 0
  in
  float_of_int (go s path)

let new_conn st = { fd = connect st.daemon.sock; partial = "" }
let close_conn c = Unix.close c.fd
let lat o k = Option.value (Hashtbl.find_opt o.lat k) ~default:[]

(* The closed-loop requests with ids in (first_id, last], for checking. *)
let closed_events st ~first_id ~last =
  Array.init (last - first_id) (fun k ->
      let id = first_id + k + 1 in
      let file = id mod Array.length st.test in
      { due = 0.; id; kind = Closed_predict; on_b = false; file; line = predict_line id st.test.(file) })

(* Phase (b) against the running daemon, checked: [closed_rounds] closed
   loops on fresh connections, and the median of their rates. The rate
   of one loop depends on how the two connections' requests happen to
   fall into the daemon's batches, and that lasts as long as the
   connections do. *)
let closed_rounds = 5

let closed_phase st ~seconds ~first_id =
  let o = new_outcome (Array.length st.test) in
  let rec rounds k id rates =
    if k = closed_rounds then (id, rates)
    else begin
      let conns = [ new_conn st; new_conn st ] in
      let rps, last =
        closed_loop o ~seconds:(seconds /. float_of_int closed_rounds) ~first_id:id conns
          st.test
      in
      List.iter close_conn conns;
      rounds (k + 1) last (rps :: rates)
    end
  in
  let last, rates = rounds 0 first_id [] in
  check_samples st o (closed_events st ~first_id ~last);
  (o, median rates, last)

let fmt_ms name xs =
  Printf.sprintf "%s p50 %.3f ms p95 %.3f ms p99 %.3f ms (n=%d)" name (median xs)
    (percentile 0.95 xs) (percentile 0.99 xs) (List.length xs)

(* The untraced run: [segments] stretches of the open loop, each followed
   by one closed-loop round on fresh connections, so that both phases
   sample the whole run rather than one half of it each. The host's
   speed changes for seconds at a time, and a closed loop run in one
   block measured whichever stretch it fell into. Returns the open and
   closed outcomes, the open-loop schedule, the daemon's [stats], the
   median closed-loop rate and the last request id. *)
let segments = 10

let mixed_phases st ~seed ~seconds =
  let t_open = open_share *. seconds and t_closed = (1. -. open_share) *. seconds in
  let events, last = schedule st ~seed ~duration:t_open ~first_id:0 in
  let n = Array.length st.test in
  let o = new_outcome n and ob = new_outcome n in
  let a = new_conn st and b = new_conn st in
  let seg = t_open /. float_of_int segments in
  let rec go k id rates =
    if k = segments then (id, rates)
    else begin
      let lo = float_of_int k *. seg in
      let hi = if k = segments - 1 then infinity else lo +. seg in
      let part =
        Array.of_list
          (List.filter_map
             (fun e -> if e.due >= lo && e.due < hi then Some { e with due = e.due -. lo } else None)
             (Array.to_list events))
      in
      open_loop o (a, b) part;
      let conns = [ new_conn st; new_conn st ] in
      let rps, id =
        closed_loop ob ~seconds:(t_closed /. float_of_int segments) ~first_id:id conns st.test
      in
      List.iter close_conn conns;
      go (k + 1) id (rps :: rates)
    end
  in
  let closed_last, rates = go 0 (last + 2) [] in
  check_samples st o events;
  check_samples st ob (closed_events st ~first_id:(last + 2) ~last:closed_last);
  let s = stats a (last + 1) in
  ignore (roundtrip b (obj [ ("op", str "close"); ("id", num (last + 2)); ("session", str session) ]));
  close_conn a;
  close_conn b;
  (o, ob, events, s, rates, closed_last)

let run ~seed ~seconds ~trace ~jobs ~dir =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Parallel.set_default_jobs jobs;
  if not trace then begin
    let st, setup_s, setups =
      repeated_setup ~discard:(fun st -> stop_daemon st.daemon) (setup ~seed ~dir ~jobs)
    in
    let o, ob, events, s, rates, last = mixed_phases st ~seed ~seconds in
    (* The rounds are spread over the run. Their median moved less from
       run to run than their best: over ten runs of ten rounds, the
       median round spread by 0.08 of its median and the best round by
       0.13. *)
    let rps = median rates in
    let hwm = vm_hwm_mb (string_of_int st.daemon.pid) in
    stop_daemon st.daemon;
    let predicts = lat o Predict in
    let failures = o.failures @ ob.failures in
    (* Request ids run from 1 to [last]. *)
    let attempted = last in
    List.iter (fun f -> Printf.printf "failure %s\n" f) (List.rev failures);
    (* Each file's fastest open-loop predict. *)
    let best = Array.to_list o.best in
    let n = List.length best in
    {
      attempted;
      failed = List.length failures;
      metrics =
        [
          metric "setup_s" "s" setup_s ~samples:setups;
          metric "files_per_s" "files/s" rps ~samples:segments;
          metric "file_p50_ms" "ms" (median best) ~samples:n;
          metric "peak_mem_mb" "MB" hwm;
        ];
      reports =
        (let pct name p xs = metric name "ms" (percentile p xs) ~samples:(List.length xs) in
         [
           pct "file_p90_ms" 0.9 best;
           pct "predict_p50_ms" 0.5 predicts;
           pct "predict_p99_ms" 0.99 predicts;
           pct "edit_p50_ms" 0.5 (lat o Edit);
           pct "edit_p95_ms" 0.95 (lat o Edit);
           metric "predict_slo_share" "share"
             (float_of_int o.slo_ok /. float_of_int (max 1 o.predicts))
             ~samples:o.predicts;
           pct "reload_ms" 0.5 (lat o Reload);
           metric "predict_rps" "req/s" rps ~samples:segments;
           metric "server_rss_mb" "MB" hwm;
           metric "failed_share" "share"
             (float_of_int (List.length failures) /. float_of_int (max 1 attempted))
             ~samples:attempted;
         ]);
      notes =
        [
          Printf.sprintf
            "open loop: %.0f req/s for %.1f s in %d stretches, %d requests, latency from due \
             time, SLO %.0f ms; closed loop: %d rounds of %.1f s, 2 connections with %d in \
             flight each, predicts/s per round: %s"
            rate (open_share *. seconds) segments (Array.length events) slo_ms segments
            ((1. -. open_share) *. seconds /. float_of_int segments) window
            (String.concat " " (List.rev_map (Printf.sprintf "%.1f") rates));
          fmt_ms "similar" (lat o Similar);
          fmt_ms "closed-loop predict" (lat ob Closed_predict);
          Printf.sprintf "generator lateness p99 %.3f ms max %.3f ms"
            (percentile 0.99 o.lateness *. 1000.) (percentile 1.0 o.lateness *. 1000.);
          Printf.sprintf "daemon stats: batches %.0f max_batch %.0f queue_hw %.0f shed %.0f cache hits %.0f misses %.0f"
            (stat_int s [ "batches" ]) (stat_int s [ "max_batch" ]) (stat_int s [ "queue_hw" ])
            (stat_int s [ "shed" ]) (stat_int s [ "session_cache"; "hits" ])
            (stat_int s [ "session_cache"; "misses" ]);
        ];
    }
  end
  else begin
    let st = setup ~seed ~dir ~jobs () in
    (* The traced run's phases: an open loop for the daemon's counters,
       then three closed loops (the workload's daemon untraced and
       traced, then a 2-job daemon), each a fifth of the run. *)
    let t_phase = seconds /. 5. in
    let events, last = schedule st ~seed ~duration:t_phase ~first_id:0 in
    let o = new_outcome (Array.length st.test) in
    let a = new_conn st and b = new_conn st in
    open_loop o (a, b) events;
    check_samples st o events;
    let s = stats a (last + 1) in
    ignore (roundtrip b (obj [ ("op", str "close"); ("id", num (last + 2)); ("session", str session) ]));
    close_conn a;
    close_conn b;
    let last = last + 2 in
    (* Requests the daemon queues for its batcher; control ops answer inline. *)
    let batched =
      Array.fold_left
        (fun n e ->
          match Serve.Protocol.request_of_line e.line with
          | Ok (Serve.Protocol.Predict _ | Serve.Protocol.Similar _ | Serve.Protocol.Open _
               | Serve.Protocol.Edit _ | Serve.Protocol.Close _) -> n + 1
          | _ -> n)
        0 events
    in
    let hits = stat_int s [ "session_cache"; "hits" ]
    and misses = stat_int s [ "session_cache"; "misses" ] in
    let counters =
      [
        metric "serve.batches" "count" (stat_int s [ "batches" ]);
        metric "serve.mean_batch" "requests" (float_of_int batched /. Float.max 1. (stat_int s [ "batches" ]));
        metric "serve.queue_hw" "requests" (stat_int s [ "queue_hw" ]);
        metric "serve.shed" "requests" (stat_int s [ "shed" ]);
        metric "astpath.cache_hit_ratio" "ratio" (hits /. Float.max 1. (hits +. misses));
      ]
    in
    let o1, rps_seq, last = closed_phase st ~seconds:t_phase ~first_id:last in
    let rt_seq = median (lat o1 Closed_predict) in
    let replay = ref [] in
    let failures = ref (o.failures @ o1.failures) in
    let rps_traced = ref 0. and traced_last = ref last in
    Trace.record (fun () ->
        Trace.span "perfbench.pass" (fun () ->
            let ot, rps, l = closed_phase st ~seconds:t_phase ~first_id:last in
            rps_traced := rps;
            traced_last := l;
            failures := !failures @ ot.failures;
            replay := Hashtbl.fold (fun id _ acc -> id :: acc) ot.replies []);
        Trace.span "perfbench.probe" (fun () ->
            (* The same request lines through the engine in-process. *)
            let line_of id = predict_line id st.test.(id mod Array.length st.test) in
            List.iter
              (fun id ->
                match Serve.Protocol.request_of_line (line_of id) with
                | Ok r ->
                    ignore
                      (Trace.span "serve.engine" ~req:id ~items:List.length (fun () ->
                           Serve.Engine.handle_batch st.engine [ r ]))
                | Error _ -> ())
              (List.sort compare !replay);
            (* What the engine does inside, call by call. *)
            Array.iter
              (fun src ->
                let g = graph_of js (parse js src) in
                ignore
                  (Trace.span "crf.predict" ~items:List.length (fun () ->
                       Crf.Train.predict_batch st.model [ g ])))
              st.test;
            let path = Filename.concat dir "model.crf" in
            ignore
              (Trace.span "crf.load_mapped" ~items:(fun _ -> file_size path) (fun () ->
                   Crf.Serialize.load_mapped path));
            let cache = Astpath.Cache.create () in
            Array.iter
              (fun code ->
                let tree = parse js code in
                let idx =
                  Trace.span "ast.index" ~items:Ast.Index.size (fun () ->
                      Astpath.Cache.index cache tree)
                in
                let n = ref 0 in
                Trace.span "astpath.cached_extract" ~items:(fun () -> !n) (fun () ->
                    Astpath.Extract.iter_all_cached ~cache idx js.Pigeon.Lang.tuned (fun _ ->
                        incr n)))
              st.trace));
    stop_daemon st.daemon;
    (* [parallel.speedup]: the same closed loop against a daemon at 2
       jobs, the CLI default on a 2-core host. *)
    let st = { st with daemon = start_daemon ~dir ~jobs:2 ~tag:"serve2" } in
    let ob, rps_par, last = closed_phase st ~seconds:t_phase ~first_id:!traced_last in
    stop_daemon st.daemon;
    let failures = ref (!failures @ ob.failures) in
    let engine_ms =
      Trace.self_s "serve.engine" *. 1000. /. float_of_int (max 1 (Trace.items "serve.engine"))
    in
    List.iter (fun f -> Printf.printf "failure %s\n" f) !failures;
    {
      attempted = last;
      failed = List.length !failures;
      metrics =
        Layers.traced ~speedup:(rps_par /. rps_seq) ~overhead:((rps_seq /. !rps_traced) -. 1.)
        @ counters
        @ [
            metric "serve.engine_ms" "ms" engine_ms;
            metric "serve.queue_wait_ms" "ms" (rt_seq -. engine_ms);
            metric "crf.model_bytes" "bytes"
              (float_of_int (file_size (Filename.concat dir "model.crf")));
          ];
      reports = [];
      notes = [ "serve.queue_wait_ms is the 1-job closed-loop round trip minus serve.engine_ms" ];
    }
  end

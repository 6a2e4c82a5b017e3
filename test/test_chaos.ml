(* Chaos harness for the serve daemon: a mixed hostile workload —
   overload bursts (pipelined past max_queue), slow writers
   (slowloris), mid-line disconnects, injected faults (batcher delays,
   engine raises, torn replies, accept-time drops), hot reload under
   load, and drain-then-stop mid-traffic — with exact accounting.

   The safety properties asserted, connection by connection:
   - every line a client receives parses as JSON and echoes an id that
     client sent, exactly once (no duplicated, cross-wired or invented
     replies);
   - an unparseable line is only ever the LAST thing before EOF (a
     torn reply from a killed connection) — framing of a live
     connection is never corrupted;
   - a connection that stays alive receives exactly one reply per
     request; missing replies imply the connection died;
   - nothing hangs: every client wait is bounded (read timeouts +
     a global watchdog that fails the whole run).

   Scale is bounded by PIGEON_CHAOS_COUNT (requests per pipelining
   client; default 24, CI raises it). *)

module Netio = Serve.Netio

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let chaos_count =
  match Sys.getenv_opt "PIGEON_CHAOS_COUNT" with
  | Some s -> ( match int_of_string_opt s with Some n when n > 0 -> n | _ -> 24)
  | None -> 24

(* Fail the whole process if anything wedges: the daemon hanging is
   exactly the bug this suite exists to catch. *)
let with_watchdog seconds f =
  let done_ = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        let rec tick left =
          if Atomic.get done_ then ()
          else if left <= 0 then begin
            prerr_endline "chaos: watchdog deadline exceeded — daemon hang";
            exit 2
          end
          else begin
            Thread.delay 1.;
            tick (left - 1)
          end
        in
        tick seconds)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set done_ true;
      Thread.join th)
    f

(* ---------- shared models ---------- *)

let lang = Pigeon.Lang.javascript

let train_model ~n ~seed =
  let config = { Corpus.Gen.default with Corpus.Gen.n_files = n; seed } in
  let sources = Corpus.Gen.generate_sources config Corpus.Render.Js in
  let repr = Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
      sources
  in
  let config = { Crf.Train.default_config with Crf.Train.iterations = 3 } in
  Crf.Train.train ~config graphs

let temp_model name model =
  let path = Filename.temp_file ("pigeon-chaos-" ^ name) ".crf" in
  Crf.Serialize.save model path;
  path

(* Model A is what daemons start on; model B is what they reload to. *)
let model_a_path = lazy (temp_model "a" (train_model ~n:30 ~seed:77))
let model_b_path = lazy (temp_model "b" (train_model ~n:36 ~seed:99))

let engine_of path =
  Serve.Engine.create ~model_path:path ~model:(Crf.Serialize.load_exn path) ()

let temp_sock () =
  let path = Filename.temp_file "pigeon-chaos" ".sock" in
  Sys.remove path;
  path

let predict_line ~id code =
  Serve.Json.to_string
    (Serve.Json.Obj
       [ ("op", Serve.Json.Str "predict");
         ("id", Serve.Json.Num (float_of_int id));
         ("lang", Serve.Json.Str "JavaScript");
         ("code", Serve.Json.Str code) ])

let sample_codes =
  [| "function f(a, b) { var total = a + b; var msg = '' + total; return msg; }\n";
     "var count = 0; var next = count + 1; var last = next * 2;\n";
     "function g(x) { var acc = x; var tmp = acc + acc; return tmp; }\n";
     "var alpha = 3; var beta = alpha * 2; var gamma = beta - alpha;\n" |]

let hostile_code =
  "function f(){ return " ^ String.make 3_000 '(' ^ "1"
  ^ String.make 3_000 ')' ^ "; }\n"

(* ---------- per-connection accounting ---------- *)

type outcome = {
  mutable received : int;
  mutable conn_died : bool;
  mutable overloaded : int;
  mutable errors : int;  (** structured non-overloaded error replies *)
  mutable violations : string list;
}

let fresh_outcome () =
  { received = 0; conn_died = false; overloaded = 0; errors = 0;
    violations = [] }

let violate o fmt =
  Printf.ksprintf (fun s -> o.violations <- s :: o.violations) fmt

(* Pipelining client: send [ids] requests back to back, then drain
   replies. Returns the per-connection outcome; every framing/identity
   violation is recorded rather than raised so one bad client does not
   hide the others. *)
let pipelining_client ~sock ~ids ~line_of () =
  let o = fresh_outcome () in
  match
    Serve.Client.connect ~connect_timeout:10. ~read_timeout:30.
      ~retry:Serve.Client.default_retry (Serve.Client.Unix_sock sock)
  with
  | exception _ ->
      (* accept-drop fault, conn cap, or a daemon mid-stop: the
         connection never existed, so nothing was accepted *)
      o.conn_died <- true;
      o
  | c ->
      Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
      let sent = ref [] in
      (try
         List.iter
           (fun id ->
             Serve.Client.send_line c (line_of id);
             sent := id :: !sent)
           ids
       with Unix.Unix_error _ -> o.conn_died <- true);
      let expected = List.length !sent in
      let seen = Hashtbl.create 16 in
      let rec drain () =
        if o.received >= expected || o.conn_died then ()
        else
          match Serve.Client.recv_line c with
          | exception Unix.Unix_error (Unix.ETIMEDOUT, _, _) ->
              violate o "reply wait timed out with %d/%d received — hang?"
                o.received expected
          | exception Unix.Unix_error _ -> o.conn_died <- true
          | None -> o.conn_died <- true
          | Some line -> (
              match Serve.Json.parse line with
              | Error _ ->
                  (* A torn reply: legal only as the very last bytes
                     of a killed connection. *)
                  o.conn_died <- true;
                  (match Serve.Client.recv_line c with
                  | None -> ()
                  | Some next ->
                      violate o
                        "garbled line %S followed by more data %S — framing \
                         corrupted"
                        line next
                  | exception _ -> ())
              | Ok json ->
                  (match Serve.Json.int_field "id" json with
                  | None -> violate o "reply %S carries no int id" line
                  | Some id ->
                      if not (List.mem id !sent) then
                        violate o "reply id %d was never sent here" id
                      else if Hashtbl.mem seen id then
                        violate o "duplicate reply for id %d" id
                      else Hashtbl.add seen id ());
                  o.received <- o.received + 1;
                  (match
                     (Serve.Protocol.reply_ok line,
                      Serve.Protocol.reply_error line)
                   with
                  | true, _ -> ()
                  | false, Some e ->
                      if e.Serve.Protocol.kind = "overloaded" then
                        o.overloaded <- o.overloaded + 1
                      else o.errors <- o.errors + 1
                  | false, None ->
                      violate o "non-ok reply without structured error: %S"
                        line);
                  drain ())
      in
      drain ();
      if (not o.conn_died) && o.received <> expected then
        violate o "live connection got %d/%d replies" o.received expected;
      o

(* Slowloris: trickle half a request (raw fd — send_line always
   terminates lines), then stall past the idle timeout. The daemon
   must close the connection (best-effort timeout line first) — and
   promptly, not leak the reader. *)
let slow_writer ~sock ~idle () =
  let o = fresh_outcome () in
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | exception Unix.Unix_error _ ->
      (* accept-drop fault or conn cap: that is a legal outcome *)
      o.conn_died <- true;
      o
  | () -> (
      (try ignore (Unix.write_substring fd "{\"op\":\"pred" 0 11)
       with Unix.Unix_error _ -> ());
      (* stall well past the idle budget, then verify the daemon shut
         us down rather than waiting forever *)
      let lr =
        Netio.line_reader ~idle_timeout:(Float.max 10. (idle *. 20.)) fd
      in
      match Netio.read_line lr with
      | Netio.Timeout ->
          violate o "daemon kept a stalled connection past its idle timeout";
          o
      | Netio.Eof -> o.conn_died <- true; o
      | Netio.Overflow -> violate o "overflow reading timeout reply"; o
      | Netio.Line line ->
          (match Serve.Protocol.reply_error line with
          | Some e when e.Serve.Protocol.kind = "timeout" -> ()
          | Some _ | None ->
              (* a torn line is acceptable — the conn is dying *)
              ());
          o.conn_died <- true;
          o)

(* Mid-line disconnect: write a request prefix and vanish. The daemon
   must simply drop the partial request. *)
let midline_disconnector ~sock () =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | exception Unix.Unix_error _ -> ()
  | () -> (
      try ignore (Unix.write_substring fd "{\"op\":\"predict\",\"id\":1,\"la" 0 26)
      with Unix.Unix_error _ -> ()));
  try Unix.close fd with Unix.Unix_error _ -> ()

let assert_no_violations name outcomes =
  let all = List.concat_map (fun o -> o.violations) outcomes in
  List.iter (fun v -> Printf.eprintf "%s: VIOLATION: %s\n%!" name v) all;
  check_int (name ^ ": safety violations") 0 (List.length all)

(* ---------- the mixed chaos run ---------- *)

let test_chaos_mixed () =
  with_watchdog 180 @@ fun () ->
  let sock = temp_sock () in
  let idle = 0.5 in
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some sock;
      max_batch = 4;
      max_queue = 8;
      max_conns = 32;
      idle_timeout = idle;
      faults =
        {
          Serve.Faults.pre_batch_delay_ms = 2;
          engine_error_every = 7;
          torn_reply_every = 9;
          accept_drop_every = 5;
        };
    }
  in
  let engine = engine_of (Lazy.force model_a_path) in
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let t = Serve.Server.start ~pool engine cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Serve.Server.wait t;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let line_of id =
    if id mod 5 = 2 then predict_line ~id hostile_code
    else if id mod 11 = 6 then
      (* similar without a w2v model: structured bad-request *)
      Serve.Json.to_string
        (Serve.Json.Obj
           [ ("op", Serve.Json.Str "similar");
             ("id", Serve.Json.Num (float_of_int id));
             ("word", Serve.Json.Str "count") ])
    else predict_line ~id sample_codes.(id mod Array.length sample_codes)
  in
  let n_pipeliners = 4 in
  let outcomes = Array.make (n_pipeliners + 2) (fresh_outcome ()) in
  let pipeliner k =
    let base = (k + 1) * 100_000 in
    let ids = List.init chaos_count (fun i -> base + i) in
    outcomes.(k) <- pipelining_client ~sock ~ids ~line_of ()
  in
  let slow k = outcomes.(n_pipeliners + k) <- slow_writer ~sock ~idle () in
  let threads =
    List.init n_pipeliners (fun k -> Thread.create pipeliner k)
    @ List.init 2 (fun k -> Thread.create slow k)
    @ List.init 2 (fun _ -> Thread.create (fun () -> midline_disconnector ~sock ()) ())
  in
  (* reload-under-load, against the fault storm: keep trying until a
     clean "reloaded" reply survives the torn-reply fault *)
  let reloaded = ref false in
  let reload_line =
    Serve.Json.to_string
      (Serve.Json.Obj
         [ ("op", Serve.Json.Str "reload"); ("id", Serve.Json.Num 1.);
           ("model", Serve.Json.Str (Lazy.force model_b_path)) ])
  in
  let attempts = ref 0 in
  while (not !reloaded) && !attempts < 20 do
    incr attempts;
    (match
       Serve.Client.connect ~connect_timeout:10. ~read_timeout:30.
         ~retry:Serve.Client.default_retry (Serve.Client.Unix_sock sock)
     with
    | exception _ -> ()
    | c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        (match Serve.Client.request c reload_line with
        | Some r when Serve.Protocol.reply_ok r -> reloaded := true
        | Some _ | None -> ()
        | exception _ -> ()));
    if not !reloaded then Thread.delay 0.05
  done;
  List.iter Thread.join threads;
  check_bool "reload succeeded under chaos" true !reloaded;
  assert_no_violations "chaos" (Array.to_list outcomes);
  (* liveness summary + post-storm health check *)
  let total_recv =
    Array.fold_left (fun acc o -> acc + o.received) 0 outcomes
  in
  let total_over =
    Array.fold_left (fun acc o -> acc + o.overloaded) 0 outcomes
  in
  let died =
    Array.fold_left (fun acc o -> acc + if o.conn_died then 1 else 0) 0 outcomes
  in
  Printf.printf
    "chaos: %d replies received, %d overloaded, %d/%d connections died, \
     reload after %d attempt(s)\n%!"
    total_recv total_over died (Array.length outcomes) !attempts;
  check_bool "some requests were answered despite the storm" true
    (total_recv > 0);
  (* the daemon must still answer a clean ping (retry past the
     accept-drop and torn-reply faults) *)
  let alive = ref false in
  let tries = ref 0 in
  while (not !alive) && !tries < 10 do
    incr tries;
    (match
       Serve.Client.connect ~connect_timeout:10. ~read_timeout:10.
         ~retry:Serve.Client.default_retry (Serve.Client.Unix_sock sock)
     with
    | exception _ -> ()
    | c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        (match Serve.Client.request c {|{"op":"ping","id":7}|} with
        | Some r when Serve.Protocol.reply_ok r -> alive := true
        | _ -> ()
        | exception _ -> ()))
  done;
  check_bool "daemon alive after the storm" true !alive;
  (* drain-then-stop under load: a final wave, stopped mid-flight *)
  let late = ref (fresh_outcome ()) in
  let wave =
    Thread.create
      (fun () ->
        let ids = List.init chaos_count (fun i -> 900_000 + i) in
        late := pipelining_client ~sock ~ids ~line_of ())
      ()
  in
  Thread.delay 0.05;
  Serve.Server.request_stop t;
  Serve.Server.wait t;
  Thread.join wave;
  (* replies observed before the stop still obey framing/identity *)
  assert_no_violations "chaos stop-wave" [ !late ];
  let s = Serve.Server.stats t in
  check_bool "batches ran" true (s.Serve.Protocol.batches > 0);
  check_bool "queue high-water bounded" true
    (s.Serve.Protocol.queue_hw <= cfg.Serve.Server.max_queue);
  check_bool "reload counted" true (s.Serve.Protocol.reloads >= 1)

(* ---------- deterministic overload burst ---------- *)

let test_overload_burst () =
  with_watchdog 120 @@ fun () ->
  let sock = temp_sock () in
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some sock;
      max_batch = 1;
      max_queue = 2;
      (* only the deterministic batcher delay — no reply corruption *)
      faults =
        { Serve.Faults.disabled with Serve.Faults.pre_batch_delay_ms = 15 };
    }
  in
  let engine = engine_of (Lazy.force model_a_path) in
  let t = Serve.Server.start engine cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Serve.Server.wait t;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let n = max 20 chaos_count in
  let ids = List.init n (fun i -> 1000 + i) in
  let line_of id = predict_line ~id sample_codes.(id mod Array.length sample_codes) in
  let o = pipelining_client ~sock ~ids ~line_of () in
  assert_no_violations "burst" [ o ];
  check_bool "connection survived the burst" false o.conn_died;
  check_int "every request answered exactly once" n o.received;
  check_bool "excess load was shed with structured errors" true
    (o.overloaded > 0);
  let s = Serve.Server.stats t in
  check_bool "stats.shed counted" true (s.Serve.Protocol.shed >= o.overloaded);
  check_bool "queue bounded" true
    (s.Serve.Protocol.queue_hw <= cfg.Serve.Server.max_queue)

(* ---------- reload under clean load: byte-identity ---------- *)

let test_reload_under_load () =
  with_watchdog 120 @@ fun () ->
  let a_path = Lazy.force model_a_path and b_path = Lazy.force model_b_path in
  let ref_a = engine_of a_path and ref_b = engine_of b_path in
  let probe id code =
    match Serve.Protocol.request_of_line (predict_line ~id code) with
    | Ok r -> r
    | Error _ -> assert false
  in
  let sock = temp_sock () in
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some sock;
      max_batch = 4;
      max_queue = 0;
      (* unbounded: this test is about reloads, not sheds *)
    }
  in
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let t = Serve.Server.start ~pool (engine_of a_path) cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Serve.Server.wait t;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  let n_clients = 3 in
  let per_client = max 10 (chaos_count / 2) in
  (* reference replies for every (id, code) the clients will send,
     computed here rather than in the client threads: an engine is not
     shared across threads (two threads forcing a fresh model's lazy
     tables at once raise [CamlinternalLazy.Undefined]) *)
  let expected =
    Array.init n_clients (fun k ->
        Array.init per_client (fun i ->
            let id = (k * 1000) + i in
            let code = sample_codes.(id mod Array.length sample_codes) in
            ( Serve.Engine.handle ref_a (probe id code),
              Serve.Engine.handle ref_b (probe id code) )))
  in
  let failures = Queue.create () in
  let fmutex = Mutex.create () in
  let fail msg =
    Mutex.lock fmutex;
    Queue.add msg failures;
    Mutex.unlock fmutex
  in
  let client k =
    let c = Serve.Client.connect_unix ~read_timeout:30. sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    for i = 0 to per_client - 1 do
      let id = (k * 1000) + i in
      let code = sample_codes.(id mod Array.length sample_codes) in
      match Serve.Client.request c (predict_line ~id code) with
      | None -> fail (Printf.sprintf "client %d: connection dropped" k)
      | exception e ->
          fail (Printf.sprintf "client %d: %s" k (Printexc.to_string e))
      | Some reply ->
          (* every reply is byte-identical to one of the two models'
             canonical replies — never an error, never a blend *)
          let expect_a, expect_b = expected.(k).(i) in
          if
            (not (String.equal reply expect_a))
            && not (String.equal reply expect_b)
          then
            fail
              (Printf.sprintf
                 "client %d req %d: reply matches neither model: %s" k i reply)
    done
  in
  let threads = List.init n_clients (fun k -> Thread.create client k) in
  (* fire the reload mid-burst over the wire *)
  Thread.delay 0.05;
  let rc = Serve.Client.connect_unix ~read_timeout:30. sock in
  (match
     Serve.Client.request rc
       (Serve.Json.to_string
          (Serve.Json.Obj
             [ ("op", Serve.Json.Str "reload"); ("id", Serve.Json.Num 9.);
               ("model", Serve.Json.Str b_path) ]))
   with
  | Some r ->
      Alcotest.(check string)
        "reloaded reply" {|{"id":9,"ok":true,"reloaded":true}|} r
  | None -> Alcotest.fail "no reload reply");
  Serve.Client.close rc;
  List.iter Thread.join threads;
  Queue.iter (fun m -> Printf.eprintf "reload-under-load: %s\n%!" m) failures;
  check_int "no failures" 0 (Queue.length failures);
  (* post-reload: the daemon serves model B, byte-identical to a fresh
     engine loaded from the new file *)
  let c = Serve.Client.connect_unix ~read_timeout:30. sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let code = sample_codes.(0) in
  (match Serve.Client.request c (predict_line ~id:4242 code) with
  | Some reply ->
      Alcotest.(check string)
        "post-reload byte-identity"
        (Serve.Engine.handle ref_b (probe 4242 code))
        reply
  | None -> Alcotest.fail "daemon dropped the post-reload probe");
  let s = Serve.Server.stats t in
  check_bool "reload counted" true (s.Serve.Protocol.reloads >= 1)

(* ---------- registry thrash: eviction + revival under load ---------- *)

let test_registry_eviction_under_load () =
  with_watchdog 120 @@ fun () ->
  let a_path = Lazy.force model_a_path and b_path = Lazy.force model_b_path in
  let sock = temp_sock () in
  let cfg =
    {
      Serve.Server.default_config with
      Serve.Server.unix_socket = Some sock;
      max_batch = 4;
      max_queue = 0;
      (* unbounded queue, no faults: accounting must be strict *)
    }
  in
  (* a one-byte mapped budget: at most one named entry stays mapped,
     so every request naming the other one forces an evict + revive
     cycle while requests against the old snapshot are in flight *)
  let engine =
    Serve.Engine.create ~model_path:a_path ~max_mapped_bytes:1
      ~model:(Crf.Serialize.load_exn a_path) ()
  in
  let pool = Parallel.create ~jobs:2 () in
  Fun.protect ~finally:(fun () -> Parallel.shutdown pool) @@ fun () ->
  let t = Serve.Server.start ~pool engine cfg in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.request_stop t;
      Serve.Server.wait t;
      if Sys.file_exists sock then Sys.remove sock)
  @@ fun () ->
  (* preload two named entries over the wire (both from model B's
     file: distinct registry entries, identical predictions) *)
  let rc = Serve.Client.connect_unix ~read_timeout:30. sock in
  let load id name =
    let line =
      Serve.Json.to_string
        (Serve.Json.Obj
           [ ("op", Serve.Json.Str "reload");
             ("id", Serve.Json.Num (float_of_int id));
             ("name", Serve.Json.Str name);
             ("model", Serve.Json.Str b_path) ])
    in
    match Serve.Client.request rc line with
    | Some r when Serve.Protocol.reply_ok r -> ()
    | Some r -> Alcotest.failf "load %s rejected: %s" name r
    | None -> Alcotest.failf "no reply loading %s" name
  in
  load 1 "b";
  load 2 "c";
  Serve.Client.close rc;
  (* mixed load: every third request names b or c; the rest run the
     default. Exactly-once accounting via the pipelining client. *)
  let line_of id =
    let code = sample_codes.(id mod Array.length sample_codes) in
    let fields =
      [ ("op", Serve.Json.Str "predict");
        ("id", Serve.Json.Num (float_of_int id));
        ("lang", Serve.Json.Str "JavaScript");
        ("code", Serve.Json.Str code) ]
    in
    let fields =
      match id mod 3 with
      | 1 -> fields @ [ ("model", Serve.Json.Str "b") ]
      | 2 -> fields @ [ ("model", Serve.Json.Str "c") ]
      | _ -> fields
    in
    Serve.Json.to_string (Serve.Json.Obj fields)
  in
  let n_clients = 4 in
  let outcomes = Array.make n_clients (fresh_outcome ()) in
  let client k =
    let base = (k + 1) * 100_000 in
    let ids = List.init chaos_count (fun i -> base + i) in
    outcomes.(k) <- pipelining_client ~sock ~ids ~line_of ()
  in
  let threads = List.init n_clients (fun k -> Thread.create client k) in
  (* reload-by-name mid-storm: re-read entry b from disk while
     requests naming it are in flight *)
  let reload_ok = ref 0 in
  for i = 1 to 3 do
    Thread.delay 0.05;
    match Serve.Client.connect_unix ~read_timeout:30. sock with
    | exception _ -> ()
    | c ->
        Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
        let line =
          Serve.Json.to_string
            (Serve.Json.Obj
               [ ("op", Serve.Json.Str "reload");
                 ("id", Serve.Json.Num (float_of_int (500 + i)));
                 ("name", Serve.Json.Str "b");
                 ("model", Serve.Json.Str b_path) ])
        in
        (match Serve.Client.request c line with
        | Some r when Serve.Protocol.reply_ok r -> incr reload_ok
        | Some _ | None -> ())
  done;
  List.iter Thread.join threads;
  check_bool "reload-by-name succeeded under load" true (!reload_ok > 0);
  assert_no_violations "registry" (Array.to_list outcomes);
  Array.iteri
    (fun k o ->
      check_bool (Printf.sprintf "client %d survived" k) false o.conn_died;
      check_int
        (Printf.sprintf "client %d: every request answered exactly once" k)
        chaos_count o.received;
      check_int (Printf.sprintf "client %d: no error replies" k) 0 o.errors;
      check_int (Printf.sprintf "client %d: nothing shed" k) 0 o.overloaded)
    outcomes;
  (* eviction actually thrashed, and the registry stayed coherent *)
  let s = Serve.Server.stats t in
  let models = s.Serve.Protocol.models in
  check_int "three registry entries" 3 (List.length models);
  let evictions =
    List.fold_left (fun acc m -> acc + m.Serve.Protocol.ms_evictions) 0 models
  in
  check_bool "evictions happened under load" true (evictions > 0);
  List.iter
    (fun m ->
      if m.Serve.Protocol.ms_name = "default" then begin
        check_bool "default never evicted" true
          (m.Serve.Protocol.ms_evictions = 0);
        check_bool "default stays loaded" true m.Serve.Protocol.ms_loaded
      end)
    models;
  (* post-storm: named predictions still byte-identical to a fresh
     engine on the same file, whichever entry ended up evicted *)
  let ref_b = engine_of b_path in
  let probe name id =
    let code = sample_codes.(0) in
    let line =
      Serve.Json.to_string
        (Serve.Json.Obj
           [ ("op", Serve.Json.Str "predict");
             ("id", Serve.Json.Num (float_of_int id));
             ("lang", Serve.Json.Str "JavaScript");
             ("code", Serve.Json.Str code);
             ("model", Serve.Json.Str name) ])
    in
    let c = Serve.Client.connect_unix ~read_timeout:30. sock in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match Serve.Client.request c line with
    | Some reply ->
        let expect =
          match
            Serve.Protocol.request_of_line (predict_line ~id code)
          with
          | Ok r -> Serve.Engine.handle ref_b r
          | Error _ -> assert false
        in
        Alcotest.(check string)
          (Printf.sprintf "post-storm %s byte-identity" name)
          expect reply
    | None -> Alcotest.failf "daemon dropped the %s probe" name
  in
  probe "b" 7001;
  probe "c" 7002

let () =
  Alcotest.run "chaos"
    [
      ( "serve",
        [
          Alcotest.test_case "overload burst sheds, answers everything" `Quick
            test_overload_burst;
          Alcotest.test_case "reload under load is byte-exact" `Quick
            test_reload_under_load;
          Alcotest.test_case "registry eviction under load" `Quick
            test_registry_eviction_under_load;
          Alcotest.test_case "mixed hostile storm" `Quick test_chaos_mixed;
        ] );
    ]

(* Helpers shared by the workloads: results, checks, statistics, files. *)

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : int;  (** observations behind the value; 1 for a single reading *)
}

let metric ?(samples = 1) name unit_ value = { name; value; unit_; samples }

type result = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** the JSON result *)
  reports : metric list;
      (** every end-to-end figure a workload has, by the names the
          metrics table of the README gives, printed as report lines *)
  notes : string list;  (** free-text report lines *)
}

(* Peak major heap of this process so far, in MB. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let median xs = percentile 0.5 xs

let time f =
  let t0 = Trace.now () in
  let r = f () in
  (r, Trace.now () -. t0)

(* [VmHWM] of a process, in MB: its resident high-water mark. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | _ -> go ()
        | exception End_of_file -> failwith ("no VmHWM in " ^ path)
      in
      go ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = (Unix.stat path).Unix.st_size

(* Set-up time: the median over [setup_rounds] rounds of the time per
   set-up. A first set-up sizes the rounds: each round repeats the
   set-up until it has taken about a quarter of a second, so that a
   cheap set-up is not timed in one instant of a host whose speed
   changes from second to second. The last state is kept; [discard]
   releases the others. Returns the state, the median and the number of
   timed set-ups. *)
let setup_rounds = 3

let repeated_setup ~discard setup =
  let st, dt = time setup in
  let per_round = max 1 (int_of_float (ceil (0.25 /. dt))) in
  let rec rounds r st acc =
    if r = setup_rounds then (st, median acc, setup_rounds * per_round)
    else if r = 0 && per_round = 1 then
      (* A set-up that fills a round alone is its own first round. *)
      rounds 1 st [ dt ]
    else begin
      let st = ref st and total = ref 0. in
      for _ = 1 to per_round do
        discard !st;
        let s, dt = time setup in
        st := s;
        total := !total +. dt
      done;
      rounds (r + 1) !st ((!total /. float_of_int per_round) :: acc)
    end
  in
  rounds 0 st []

(* Timed passes until [seconds] have elapsed (at least one). Each pass
   starts from a collected heap, and only the last pass's output is
   kept, so that no pass pays for the garbage or the live data of the
   ones before it. [between] runs untimed after each pass, on its
   output. Returns the last output, the pass times, and the resident
   high-water mark after the first pass: OCaml 5.1 does not give freed
   heap back, so later readings would grow with the number of passes. *)
let timed_passes ~seconds ~between pass =
  let t_end = Trace.now () +. seconds in
  let rec go i times hwm =
    Gc.full_major ();
    let r, dt = time (fun () -> pass i) in
    let hwm = if i = 0 then vm_hwm_mb "self" else hwm in
    between r;
    let times = dt :: times in
    if Trace.now () >= t_end then (r, List.rev times, hwm) else go (i + 1) times hwm
  in
  go 0 [] 0.

(* One-shot latencies: [best.(i)] is the fastest call of [fs.(i)] in ms
   so far; each round calls every one once. Rounds run between timed
   passes, so the calls of one file are spread over the whole run. The
   host's speed swings by up to 1.8x for seconds at a time (a fixed CPU
   loop, with CPU time tracking wall time), and a file's fastest call
   over such a spread moves less from run to run than the median of its
   calls. *)
let one_shot_round best fs =
  List.iteri (fun i f -> best.(i) <- Float.min best.(i) (snd (time f) *. 1000.)) fs

(* The front-end a language descriptor parses with, as a layer name. *)
let front_end (lang : Pigeon.Lang.t) =
  if lang == Pigeon.Lang.javascript then "minijs"
  else if lang == Pigeon.Lang.java then "minijava"
  else if lang == Pigeon.Lang.python then "minipython"
  else "minicsharp"

let parse (lang : Pigeon.Lang.t) src =
  Trace.span (front_end lang ^ ".parse")
    ~items:(fun _ -> String.length src)
    (fun () -> lang.Pigeon.Lang.parse_tree src)

let repr_of (lang : Pigeon.Lang.t) =
  Pigeon.Graphs.default_repr ~config:lang.Pigeon.Lang.tuned ()

let graph_of (lang : Pigeon.Lang.t) tree =
  Trace.span "pigeon.graphs" ~items:(fun _ -> 1) (fun () ->
      Pigeon.Graphs.build (repr_of lang) ~def_labels:lang.Pigeon.Lang.def_labels
        ~policy:Pigeon.Graphs.Locals tree)

(* The generator settings of every benchmark corpus: each file has the
   same number of functions, each function one template, no file has a
   driver function, and none is a duplicate. Under the default ranges
   per-file cost is heavy-tailed, and a corpus of a hundred files
   changed cost by a quarter from one seed to the next; fixed shapes
   leave the seed to pick names, templates and literals. *)
let gen_config ~n ~seed =
  {
    Corpus.Gen.n_files = n;
    min_funcs = 3;
    max_funcs = 3;
    min_templates = 1;
    max_templates = 1;
    driver_prob = 0.0;
    dup_fraction = 0.0;
    seed;
  }

let sources (lang : Pigeon.Lang.t) ~n ~seed =
  Corpus.Gen.generate_sources (gen_config ~n ~seed) lang.Pigeon.Lang.render_lang

(* A seeded corpus of [n] files, deduplicated and split into train and
   test as the paper's pipeline does. *)
let split_corpus (lang : Pigeon.Lang.t) ~n ~seed =
  let entries =
    sources lang ~n ~seed
    |> List.map (fun (path, source) -> { Corpus.Dataset.path; source })
  in
  let s = Corpus.Dataset.split_corpus ~seed (Corpus.Dataset.dedup entries) in
  let pairs xs =
    List.map (fun e -> (e.Corpus.Dataset.path, e.Corpus.Dataset.source)) xs
  in
  (pairs s.Corpus.Dataset.train, pairs s.Corpus.Dataset.test)

let exact_share pairs = (Pigeon.Metrics.summarize pairs).Pigeon.Metrics.accuracy

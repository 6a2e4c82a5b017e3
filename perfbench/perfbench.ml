(* perfbench: the pipeline from source text to served prediction, timed
   end to end and layer by layer.

     perfbench --workload NAME --seed N --seconds S --trace 0|1

   NAME is one of [workloads] or [all]. With --trace 0 the run times
   each workload's region untraced and prints the end-to-end metrics;
   with --trace 1 it prints the per-layer columns of a traced run. The
   last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The report lines
   above it give the host, the sample count behind every metric and
   any check that failed. A failed output check exits 1. *)

open Common

(* The job count of every workload. It is fixed here and never read
   from PIGEON_JOBS, because a number without its job count means
   nothing (SGNS streaming training alone is several times slower at 2
   jobs than at 1). It is 1 because on the 2-core shared host this was
   built on, work spread over two domains lost up to half its speed
   whenever the host took time from one core. In two sets of ten runs
   the batch workloads at 2 jobs spread by up to 0.33 of their median;
   in the runs where they fell to 0.52-0.75 of it, the serve workload,
   whose daemon had 1 job, held 0.82-0.99. The serve daemon's load
   generator also needs a core of its own. The traced run measures 2
   jobs against 1 as [parallel.speedup]. *)
let jobs = 1

let workloads = [ "extract-corpus"; "train-crf"; "train-sgns"; "serve-mixed" ]

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest ->
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        go rest
    | "--trace" :: v :: rest ->
        trace := (match v with "0" -> Some false | "1" -> Some true | _ -> None);
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr
    when (w = "all" || List.mem w workloads) && t > 0. ->
      ((if w = "all" then workloads else [ w ]), s, t, tr)
  | _ -> usage ()

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct (r : result) =
  let metrics =
    List.map
      (fun m ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" m.name (json_number m.value)
          m.unit_)
      r.metrics
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct r.attempted r.failed (String.concat "," metrics)

let run_one ~workload ~seed ~seconds ~trace =
  let dir = Filename.concat "_perfbench" (Printf.sprintf "%s-%d-%d" workload seed (Unix.getpid ())) in
  mkdir_p dir;
  Printf.printf "host {\"cores\":%d,\"ocaml\":%S,\"jobs\":%d,\"seed\":%d,\"workload\":%S,\"trace\":%b}\n%!"
    (Domain.recommended_domain_count ()) Sys.ocaml_version jobs seed workload trace;
  let outcome =
    match
      Fun.protect
        ~finally:(fun () ->
          Mixed.kill_live ();
          rm_rf dir)
        (fun () ->
          match workload with
          | "extract-corpus" -> Batch.extract ~seed ~seconds ~trace ~jobs ~dir
          | "train-crf" -> Batch.train_crf ~seed ~seconds ~trace ~jobs ~dir
          | "train-sgns" -> Batch.train_sgns ~seed ~seconds ~trace ~jobs ~dir
          | _ -> Mixed.run ~seed ~seconds ~trace ~jobs ~dir)
    with
    | r -> Ok r
    | exception Check_failed msg -> Error msg
    | exception e -> Error ("uncaught exception " ^ Printexc.to_string e)
  in
  match outcome with
  | Ok r ->
      let r = if trace then { r with metrics = Layers.complete r.metrics } else r in
      let line kind m =
        Printf.printf "%s %s %s %s n=%d\n" kind m.name (json_number m.value) m.unit_ m.samples
      in
      List.iter (fun n -> Printf.printf "note %s\n" n) r.notes;
      List.iter (line "report") r.reports;
      List.iter (line "metric") r.metrics;
      if trace then begin
        Printf.printf "note per-layer _words columns come from the 1-job traced pass\n";
        let path = Filename.concat "_perfbench" (Printf.sprintf "spans-%s-%d.jsonl" workload seed) in
        Trace.write path;
        Printf.printf "note spans written to %s\n" path
      end;
      let correct = r.failed = 0 in
      print_result ~correct r;
      correct
  | Error msg ->
      Printf.printf "check failed: %s\n" msg;
      print_result ~correct:false
        { attempted = 1; failed = 1; metrics = []; reports = []; notes = [] };
      false

let () =
  let ws, seed, seconds, trace = parse_args () in
  let ok =
    List.fold_left (fun ok workload -> run_one ~workload ~seed ~seconds ~trace && ok) true ws
  in
  exit (if ok then 0 else 1)

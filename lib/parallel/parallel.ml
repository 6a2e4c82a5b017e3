exception Missing_result of { chunk : int; index : int }

let () =
  Printexc.register_printer (function
    | Missing_result { chunk; index } ->
        Some
          (Printf.sprintf
             "Parallel.Missing_result: worker finished chunk %d without \
              storing a result for element %d (pool invariant violation)"
             chunk index)
    | _ -> None)

type pool = {
  size : int;
  queue : (unit -> unit) Queue.t;
  mutex : Mutex.t;
  work : Condition.t;  (** signalled when a task is queued or the pool closes *)
  mutable closed : bool;
  mutable workers : unit Domain.t list;
}

let max_jobs = 128
let clamp_jobs n = if n < 1 then 1 else if n > max_jobs then max_jobs else n

let env_jobs () =
  match Sys.getenv_opt "PIGEON_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some (clamp_jobs n)
      | _ -> None)

(* set_default_jobs wins over the environment so a CLI flag can
   override an inherited PIGEON_JOBS. *)
let override = ref None

let default_jobs () =
  match !override with
  | Some n -> n
  | None -> (
      match env_jobs () with
      | Some n -> n
      | None -> clamp_jobs (Domain.recommended_domain_count ()))

(* Workers drain the queue before honoring [closed], so shutdown never
   drops queued tasks. *)
let rec worker pool =
  Mutex.lock pool.mutex;
  let rec take () =
    match Queue.take_opt pool.queue with
    | Some t ->
        Mutex.unlock pool.mutex;
        Some t
    | None ->
        if pool.closed then begin
          Mutex.unlock pool.mutex;
          None
        end
        else begin
          Condition.wait pool.work pool.mutex;
          take ()
        end
  in
  match take () with
  | None -> ()
  | Some t ->
      t ();
      worker pool

let create ?jobs () =
  let size =
    clamp_jobs (match jobs with Some n -> n | None -> default_jobs ())
  in
  let pool =
    {
      size;
      queue = Queue.create ();
      mutex = Mutex.create ();
      work = Condition.create ();
      closed = false;
      workers = [];
    }
  in
  if size > 1 then
    pool.workers <-
      List.init (size - 1) (fun _ -> Domain.spawn (fun () -> worker pool));
  pool

let jobs p = p.size

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.mutex;
  List.iter Domain.join pool.workers;
  pool.workers <- []

let global = ref None
let global_mutex = Mutex.create ()

let get_pool () =
  Mutex.lock global_mutex;
  let p =
    match !global with
    | Some p -> p
    | None ->
        let p = create () in
        global := Some p;
        p
  in
  Mutex.unlock global_mutex;
  p

let set_default_jobs n =
  let n = clamp_jobs n in
  Mutex.lock global_mutex;
  override := Some n;
  (match !global with
  | Some p when p.size <> n ->
      shutdown p;
      global := None
  | _ -> ());
  Mutex.unlock global_mutex

let chunk_ranges ~chunks n =
  let chunks = max 1 (min chunks n) in
  Array.init chunks (fun k -> (k * n / chunks, (((k + 1) * n) / chunks) - 1))

let resolve = function Some p -> p | None -> get_pool ()

let map ?pool f arr =
  let pool = resolve pool in
  let n = Array.length arr in
  if pool.size <= 1 || n <= 1 then Array.map f arr
  else begin
    let res = Array.make n None in
    let ranges = chunk_ranges ~chunks:(pool.size * 4) n in
    (* Batch state lives behind its own mutex so completion of one
       batch never contends with task dispatch of another. *)
    let bm = Mutex.create () in
    let finished = Condition.create () in
    let remaining = ref (Array.length ranges) in
    let failed = ref None in
    let run_chunk k =
      (try
         let lo, hi = ranges.(k) in
         for i = lo to hi do
           res.(i) <- Some (f arr.(i))
         done
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock bm;
         (* Keep the lowest-chunk failure: the one a sequential run
            would have raised first. *)
         (match !failed with
         | Some (k0, _, _) when k0 <= k -> ()
         | _ -> failed := Some (k, e, bt));
         Mutex.unlock bm);
      Mutex.lock bm;
      decr remaining;
      if !remaining = 0 then Condition.broadcast finished;
      Mutex.unlock bm
    in
    Mutex.lock pool.mutex;
    Array.iteri (fun k _ -> Queue.add (fun () -> run_chunk k) pool.queue) ranges;
    Condition.broadcast pool.work;
    Mutex.unlock pool.mutex;
    (* The calling domain is a worker too: it helps drain the queue
       (possibly executing tasks of unrelated nested batches — still
       useful work), then blocks until its own batch completes. Every
       waiter drains the queue before blocking, so a task can only be
       pending while some domain is committed to running it — no
       deadlock even for nested [map]s. *)
    let rec help () =
      Mutex.lock pool.mutex;
      let t = Queue.take_opt pool.queue in
      Mutex.unlock pool.mutex;
      match t with
      | Some t ->
          t ();
          help ()
      | None -> ()
    in
    help ();
    Mutex.lock bm;
    while !remaining > 0 do
      Condition.wait finished bm
    done;
    Mutex.unlock bm;
    (match !failed with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ());
    (* Every chunk ran without raising, so every slot must be filled.
       If one is not, name the slot and its chunk instead of dying on
       an [assert false]: a long-lived caller (the serve daemon) needs
       an exception it can log and survive. *)
    Array.mapi
      (fun i -> function
        | Some v -> v
        | None ->
            let chunk = ref 0 in
            Array.iteri (fun k (lo, hi) -> if i >= lo && i <= hi then chunk := k) ranges;
            raise (Missing_result { chunk = !chunk; index = i }))
      res
  end

let map_list ?pool f l = Array.to_list (map ?pool f (Array.of_list l))

let map_reduce ?pool ~map:f ~reduce init arr =
  Array.fold_left reduce init (map ?pool f arr)

(* Open-addressed int -> float table for the weight hot path.

   [Hashtbl]'s [find_opt] allocates a [Some] box and a boxed float on
   every probe, which is most of what [Fast.node_score] does. Here
   keys live in a flat [int array] (linear probing, [-1] = empty — all
   packed weight keys are non-negative) and values in an unboxed
   [float array], so a lookup is a multiply, a shift, a few compares
   and an unsafe load. [get_into] runs a whole batch of lookups in one
   call, so a scoring loop in another module gets its weights without
   a boxed float per probe.

   Per-key arithmetic is identical to the [Hashtbl] code it replaces
   ([add] accumulates with a single [+.] in program order), so models
   trained on either table are byte-identical. Only iteration order
   differs, which nothing semantic depends on.

   A table is either heap-backed (training: mutable, growable) or
   map-backed (inference over an mmap'd model file: the probe index is
   a small heap array built from the file's sorted key list, but the
   values stay in the map as a [Bigarray.Array1] view — never copied).
   Mapped values are checksummed lazily: the first read-path entry
   point calls [ensure_verified], which runs the verify closure the
   loader installed. *)

type heap = {
  mutable keys : int array;
  mutable vals : float array;
  mutable mask : int;
  mutable shift : int;  (* 63 - log2 capacity: see [start] *)
  mutable count : int;
}

(* The probe index over a mapped table's sorted key run: key slots and
   the file index each occupied slot maps to. Built lazily — load time
   stays O(validation), and the build lands with the (also deferred)
   checksum pass at the first inference entry point. *)
type index = {
  x_keys : int array;
  x_idx : int array;
  x_mask : int;
  x_shift : int;
}

type mapped = {
  m_sorted : int array;  (* the file's key run: strictly increasing *)
  mutable m_index : index option;
      (* Benign race (like [m_verified]): concurrent builders compute
         identical indexes from the immutable [m_sorted] and the last
         store wins. *)
  m_count : int;
  m_vals : (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t;
  m_verify : unit -> unit;
  mutable m_verified : bool;  (* set under [verify_lock], once [m_verify] passed *)
}

type t = H of heap | M of mapped

let rec ceil_pow2 n c = if c >= n then c else ceil_pow2 n (c * 2)

(* [63 - log2 cap] for a power-of-two [cap]: the shift that leaves the
   top [log2 cap] bits of a 63-bit int. *)
let shift_of cap =
  let rec go b = if 1 lsl b >= cap then b else go (b + 1) in
  63 - go 0

let create hint =
  let cap = ceil_pow2 (max 16 hint) 16 in
  H
    {
      keys = Array.make cap (-1);
      vals = Array.make cap 0.;
      mask = cap - 1;
      shift = shift_of cap;
      count = 0;
    }

(* Fibonacci hashing: the slot is the top [63 - shift] bits of the
   product. Bit j of a product depends only on key bits 0..j, so only
   the top bits see the whole key — packed weight keys keep a label in
   bits 42-59, and an index cut from low product bits never sees it,
   piling every candidate of a node onto one probe run. [lsr] also
   makes the index non-negative. *)
let[@inline] start shift k = (k * 0x2545F4914F6CDD1D) lsr shift

let length = function H h -> h.count | M m -> m.m_count

let rec probe keys mask k i =
  let kk = Array.unsafe_get keys i in
  if kk = k || kk = -1 then i else probe keys mask k ((i + 1) land mask)

let build_index m =
  match m.m_index with
  | Some x -> x
  | None ->
      let n = Array.length m.m_sorted in
      let cap = ceil_pow2 (max 16 (2 * n)) 16 in
      let mask = cap - 1 and shift = shift_of cap in
      let keys = Array.make cap (-1) and idx = Array.make cap 0 in
      Array.iteri
        (fun j k ->
          let i = probe keys mask k (start shift k) in
          Array.unsafe_set keys i k;
          Array.unsafe_set idx i j)
        m.m_sorted;
      let x = { x_keys = keys; x_idx = idx; x_mask = mask; x_shift = shift } in
      m.m_index <- Some x;
      x

let[@inline] index_of m =
  match m.m_index with Some x -> x | None -> build_index m

let[@inline] get t k =
  match t with
  | H h ->
      let i = probe h.keys h.mask k (start h.shift k) in
      if Array.unsafe_get h.keys i = k then Array.unsafe_get h.vals i else 0.
  | M m ->
      let x = index_of m in
      let i = probe x.x_keys x.x_mask k (start x.x_shift k) in
      if Array.unsafe_get x.x_keys i = k then
        Bigarray.Array1.unsafe_get m.m_vals (Array.unsafe_get x.x_idx i)
      else 0.

(* The table dispatch is hoisted out of the loop, and every value
   goes straight from the table into [out]'s unboxed storage. *)
let get_into t keys ~pos ~len out =
  if pos < 0 || len < 0 || pos + len > Array.length keys
     || pos + len > Array.length out
  then invalid_arg "Itbl.get_into";
  match t with
  | H h ->
      let tk = h.keys and tv = h.vals and mask = h.mask and shift = h.shift in
      for j = pos to pos + len - 1 do
        let k = Array.unsafe_get keys j in
        let i = probe tk mask k (start shift k) in
        Array.unsafe_set out j
          (if Array.unsafe_get tk i = k then Array.unsafe_get tv i else 0.)
      done
  | M m ->
      let x = index_of m in
      let tk = x.x_keys and ti = x.x_idx and mask = x.x_mask
      and shift = x.x_shift and vals = m.m_vals in
      for j = pos to pos + len - 1 do
        let k = Array.unsafe_get keys j in
        let i = probe tk mask k (start shift k) in
        Array.unsafe_set out j
          (if Array.unsafe_get tk i = k then
             Bigarray.Array1.unsafe_get vals (Array.unsafe_get ti i)
           else 0.)
      done

let grow h =
  let old_keys = h.keys and old_vals = h.vals in
  let cap = 2 * Array.length old_keys in
  h.keys <- Array.make cap (-1);
  h.vals <- Array.make cap 0.;
  h.mask <- cap - 1;
  h.shift <- shift_of cap;
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = probe h.keys h.mask k (start h.shift k) in
        Array.unsafe_set h.keys j k;
        Array.unsafe_set h.vals j (Array.unsafe_get old_vals i)
      end)
    old_keys

let[@inline] insert h i k v =
  Array.unsafe_set h.keys i k;
  Array.unsafe_set h.vals i v;
  h.count <- h.count + 1;
  (* Load factor 1/2: probes stay short and the growth check is one
     compare per insert. *)
  if 2 * h.count >= Array.length h.keys then grow h

let heap_of = function
  | H h -> h
  | M _ -> invalid_arg "Itbl: mapped tables are read-only"

let add t k d =
  if d <> 0. then begin
    let h = heap_of t in
    let i = probe h.keys h.mask k (start h.shift k) in
    if Array.unsafe_get h.keys i = k then
      Array.unsafe_set h.vals i (Array.unsafe_get h.vals i +. d)
    else insert h i k d
  end

let set t k v =
  let h = heap_of t in
  let i = probe h.keys h.mask k (start h.shift k) in
  if Array.unsafe_get h.keys i = k then Array.unsafe_set h.vals i v
  else insert h i k v

(* First-use verification runs under one lock: [m_verify] may force a
   lazy (the loader's key-run checksum), and two systhreads forcing the
   same lazy at once raise [CamlinternalLazy.Undefined]. *)
let verify_lock = Mutex.create ()

let ensure_verified = function
  | H _ -> ()
  | M m -> (
      match m.m_index with
      | Some _ when m.m_verified -> ()
      | _ ->
          Mutex.protect verify_lock (fun () ->
              if not m.m_verified then begin
                m.m_verify ();
                m.m_verified <- true
              end;
              (* Piggyback the index build on the same entry point, so
                 the lookup hot path nearly always takes the [Some]
                 branch. *)
              ignore (index_of m)))

let of_sorted_mapped ~keys ~vals ~verify =
  let n = Array.length keys in
  if Bigarray.Array1.dim vals <> n then
    Printf.ksprintf failwith
      "weight table key/value count mismatch: %d keys, %d values" n
      (Bigarray.Array1.dim vals);
  (* Strictly increasing is the canonical form the writer emits;
     enforcing it here rejects duplicate keys (which would make
     lookups depend on probe order) and negative keys (which would
     collide with the empty-slot sentinel). Validation is eager — a
     linear pass — while the probe index waits for first use. *)
  let prev = ref (-1) in
  Array.iteri
    (fun j k ->
      if k <= !prev then
        Printf.ksprintf failwith
          "weight table keys not strictly increasing at index %d (%d after %d)"
          j k !prev;
      prev := k)
    keys;
  M
    {
      m_sorted = keys;
      m_index = None;
      m_count = n;
      m_vals = vals;
      m_verify = verify;
      m_verified = false;
    }

let storage = function H _ -> `Heap | M _ -> `Mapped

let mean_probe_length t =
  let keys, mask, shift =
    match t with
    | H h -> (h.keys, h.mask, h.shift)
    | M m ->
        let x = index_of m in
        (x.x_keys, x.x_mask, x.x_shift)
  in
  let total = ref 0 and n = ref 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        incr n;
        total := !total + ((i - start shift k) land mask) + 1
      end)
    keys;
  if !n = 0 then 0. else float_of_int !total /. float_of_int !n

let iter f t =
  ensure_verified t;
  match t with
  | H h ->
      let keys = h.keys and vals = h.vals in
      for i = 0 to Array.length keys - 1 do
        let k = Array.unsafe_get keys i in
        if k >= 0 then f k (Array.unsafe_get vals i)
      done
  | M m ->
      (* File order (strictly increasing keys); callers sort anyway. *)
      let vals = m.m_vals in
      Array.iteri (fun j k -> f k (Bigarray.Array1.unsafe_get vals j)) m.m_sorted

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

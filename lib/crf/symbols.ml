(* The label/relation vocabularies shared by [Candidates] and [Fast].

   Both weight-table key packings ([Fast.pw_key], [Fast.un_key],
   [Candidates] pairwise keys) assume label ids fit 18 bits and
   relation ids fit 24; interning is therefore guarded *here*, at id
   creation, so an overflowing vocabulary fails with a diagnostic
   instead of silently colliding keys in the hot loops. *)

let label_bits = 18
let rel_bits = 24
let max_labels = 1 lsl label_bits
let max_rels = 1 lsl rel_bits

type t = {
  labels : Intern.Strtab.t;
  rels : Intern.Strtab.t;
  lock : Mutex.t;
      (* Held while a new string is interned, so systhreads sharing a
         model (each [predict] interns its graph's strings) never
         hand one id to two strings. Lookups of known strings take no
         lock: between polls a [Strtab] is always consistent. *)
}

let create () =
  {
    labels = Intern.Strtab.create ~hint:256 ();
    rels = Intern.Strtab.create ~hint:256 ();
    lock = Mutex.create ();
  }

let intern t tab ~limit ~what s =
  match Intern.Strtab.find tab s with
  | Some id -> id
  | None ->
      Mutex.protect t.lock (fun () ->
          Intern.Strtab.intern_guarded tab ~limit ~what s)

let label t s = intern t t.labels ~limit:max_labels ~what:"CRF label" s
let rel t s = intern t t.rels ~limit:max_rels ~what:"CRF relation" s

let find_label t s = Intern.Strtab.find t.labels s
let find_rel t s = Intern.Strtab.find t.rels s
let label_string t i = Intern.Strtab.to_string t.labels i
let rel_string t i = Intern.Strtab.to_string t.rels i
let num_labels t = Intern.Strtab.size t.labels
let num_rels t = Intern.Strtab.size t.rels

type snapshot = { s_labels : string array; s_rels : string array }

let snapshot t =
  {
    s_labels = Intern.Strtab.snapshot t.labels;
    s_rels = Intern.Strtab.snapshot t.rels;
  }

let of_snapshot s =
  if Array.length s.s_labels > max_labels then
    invalid_arg "Symbols.of_snapshot: label vocabulary exceeds 2^18";
  if Array.length s.s_rels > max_rels then
    invalid_arg "Symbols.of_snapshot: relation vocabulary exceeds 2^24";
  {
    labels = Intern.Strtab.of_snapshot s.s_labels;
    rels = Intern.Strtab.of_snapshot s.s_rels;
    lock = Mutex.create ();
  }

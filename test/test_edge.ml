(* Edge cases and failure injection across the stack: empty inputs,
   degenerate programs, deep nesting, malformed sources, and pipeline
   behavior when components receive pathological data. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---------- lexkit ---------- *)

let test_cursor_basics () =
  let c = Lexkit.Cursor.make "ab\nc" in
  Alcotest.(check (option char)) "peek" (Some 'a') (Lexkit.Cursor.peek c);
  Alcotest.(check (option char)) "peek2" (Some 'b') (Lexkit.Cursor.peek2 c);
  check_bool "not eof" false (Lexkit.Cursor.eof c);
  Alcotest.(check char) "next" 'a' (Lexkit.Cursor.next c);
  ignore (Lexkit.Cursor.next c);
  ignore (Lexkit.Cursor.next c);
  let pos = Lexkit.Cursor.pos c in
  check_int "line after newline" 2 pos.Lexkit.line;
  check_int "col reset" 1 pos.Lexkit.col;
  ignore (Lexkit.Cursor.next c);
  check_bool "eof" true (Lexkit.Cursor.eof c);
  match Lexkit.Cursor.next c with
  | _ -> Alcotest.fail "expected error at eof"
  | exception Lexkit.Error _ -> ()

let test_cursor_take_skip () =
  let c = Lexkit.Cursor.make "aaabbb" in
  Alcotest.(check string) "take" "aaa" (Lexkit.Cursor.take_while c (( = ) 'a'));
  Lexkit.Cursor.skip_while c (( = ) 'b');
  check_bool "consumed" true (Lexkit.Cursor.eof c);
  check_bool "eat on empty" false (Lexkit.Cursor.eat c 'x')

let test_string_escapes () =
  let c = Lexkit.Cursor.make "a\\n\\t\\\\\\\"b\"rest" in
  Alcotest.(check string) "decoded" "a\n\t\\\"b"
    (Lexkit.lex_string_literal c ~quote:'"');
  Alcotest.(check string) "cursor after quote" "rest"
    (Lexkit.Cursor.take_while c (fun _ -> true))

let test_lex_number_forms () =
  let num s =
    let c = Lexkit.Cursor.make s in
    Lexkit.lex_number c
  in
  Alcotest.(check string) "int" "42" (num "42");
  Alcotest.(check string) "decimal" "3.14" (num "3.14xyz");
  (* "1." is not a decimal here: the dot needs a following digit *)
  Alcotest.(check string) "trailing dot not eaten" "1" (num "1.x")

(* ---------- degenerate programs ---------- *)

let test_empty_programs () =
  check_int "js empty" 0 (List.length (Minijs.Parser.parse ""));
  check_int "python empty" 0 (List.length (Minipython.Parser.parse ""));
  check_int "python blank lines" 0
    (List.length (Minipython.Parser.parse "\n\n   \n# comment\n"));
  let tree = Minijs.Lower.program [] in
  check_int "empty toplevel" 1 (Ast.Tree.size tree)

let test_single_token_program () =
  let tree = Minijs.Lower.program (Minijs.Parser.parse "x;") in
  let idx = Ast.Index.build tree in
  check_int "two nodes" 2 (Ast.Index.size idx);
  Alcotest.(check (list string)) "no contexts at all" []
    (List.map Astpath.Context.to_string
       (Astpath.Extract.leaf_pairs idx Astpath.Config.default))

let test_deep_nesting () =
  (* 60 nested if statements: parser recursion and path extraction must
     both survive; length limits keep extraction linear-ish. *)
  let buf = Buffer.create 1024 in
  for _ = 1 to 60 do
    Buffer.add_string buf "if (c) { "
  done;
  Buffer.add_string buf "x = 1; ";
  for _ = 1 to 60 do
    Buffer.add_string buf "} "
  done;
  let tree = Minijs.Lower.program (Minijs.Parser.parse (Buffer.contents buf)) in
  let idx = Ast.Index.build tree in
  check_bool "deep tree" true (Ast.Index.depth idx (Ast.Index.size idx - 1) > 30);
  let contexts =
    Astpath.Extract.leaf_pairs idx (Astpath.Config.make ~max_length:4 ~max_width:2 ())
  in
  List.iter
    (fun c ->
      check_bool "length respected" true
        (Astpath.Path.length (Astpath.Context.path c) <= 4))
    contexts

let test_long_flat_program () =
  (* Fig. 6 of the paper: small max length, large width. *)
  let src =
    String.concat "\n"
      (List.init 50 (fun i -> Printf.sprintf "assert.equal(a%d, 1);" i))
  in
  let tree = Minijs.Lower.program (Minijs.Parser.parse src) in
  let idx = Ast.Index.build tree in
  let narrow =
    Astpath.Extract.leaf_pairs idx (Astpath.Config.make ~max_length:8 ~max_width:1 ())
  in
  let wide =
    Astpath.Extract.leaf_pairs idx (Astpath.Config.make ~max_length:8 ~max_width:30 ())
  in
  check_bool "width controls cross-statement pairs" true
    (List.length wide > 2 * List.length narrow)

let test_unicode_strings () =
  match Minijs.Parser.parse "var s = \"héllo wörld ≠\";" with
  | [ Minijs.Syntax.VarDecl [ (_, Some (Minijs.Syntax.Str v)) ] ] ->
      check_bool "bytes preserved" true (String.length v > 5)
  | _ -> Alcotest.fail "unicode string"

(* ---------- malformed sources through the task pipeline ---------- *)

let test_pipeline_skips_bad_files () =
  let lang = Pigeon.Lang.javascript in
  let repr = Pigeon.Graphs.default_repr () in
  let graphs =
    Pigeon.Task.graphs_of_sources ~repr ~lang ~policy:Pigeon.Graphs.Locals
      [
        ("good.js", "var x = 1; use(x);");
        ("bad.js", "function ( { nope");
        ("worse.js", "var \"unterminated");
      ]
  in
  check_int "only the good file" 1 (List.length graphs)

let test_graph_no_unknowns () =
  (* A program with no locals at all: the graph trains/predicts without
     crashing and evaluates to zero pairs. *)
  let lang = Pigeon.Lang.javascript in
  let repr = Pigeon.Graphs.default_repr () in
  let g =
    Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
      ~policy:Pigeon.Graphs.Locals
      (lang.Pigeon.Lang.parse_tree "console.log(\"hi\");")
  in
  check_int "no unknowns" 0 (Crf.Graph.num_unknown g);
  let model = Crf.Train.train [ g ] in
  let pred = Crf.Train.predict model g in
  check_int "assignment covers nodes" (Array.length g.Crf.Graph.nodes)
    (Array.length pred)

let test_train_on_empty () =
  let model = Crf.Train.train [] in
  check_int "no labels" 0 (Crf.Candidates.num_labels (Crf.Train.candidates model))

let test_duplicate_role_pair () =
  (* Two locals of the same role in one function must still both get
     predictions (and the graph must not conflate them). *)
  let lang = Pigeon.Lang.javascript in
  let src = "function f(items, values) { use(items); use(values); }" in
  let repr = Pigeon.Graphs.default_repr () in
  let g =
    Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
      ~policy:Pigeon.Graphs.Locals (lang.Pigeon.Lang.parse_tree src)
  in
  check_int "two unknowns" 2 (Crf.Graph.num_unknown g)

(* ---------- metrics edge cases ---------- *)

let test_metrics_edges () =
  check_bool "empty strings match" true (Pigeon.Metrics.exact_match ~gold:"" ~pred:"");
  check_bool "punct-only equals empty" true
    (Pigeon.Metrics.exact_match ~gold:"__" ~pred:"");
  Alcotest.(check (list string)) "digits kept" [ "v2" ] (Pigeon.Metrics.subtokens "v2");
  let c = Pigeon.Metrics.f1_counts ~gold:"" ~pred:"x" in
  Alcotest.(check (float 0.)) "f1 with empty gold" 0. (Pigeon.Metrics.f1_of_counts c);
  let s = Pigeon.Metrics.summarize [] in
  check_int "empty summary" 0 s.Pigeon.Metrics.n

(* ---------- downsampling determinism in graphs ---------- *)

let test_graph_downsample_deterministic () =
  let lang = Pigeon.Lang.javascript in
  let tree = lang.Pigeon.Lang.parse_tree "var a = 1; var b = a + 2; use(a, b);" in
  let repr =
    { (Pigeon.Graphs.default_repr ()) with Pigeon.Graphs.downsample_p = 0.5 }
  in
  let g1 =
    Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
      ~policy:Pigeon.Graphs.Locals tree
  in
  let g2 =
    Pigeon.Graphs.build repr ~def_labels:lang.Pigeon.Lang.def_labels
      ~policy:Pigeon.Graphs.Locals tree
  in
  check_int "same factor count" (List.length g1.Crf.Graph.factors)
    (List.length g2.Crf.Graph.factors)

let suite =
  [
    ( "lexkit",
      [
        Alcotest.test_case "cursor basics" `Quick test_cursor_basics;
        Alcotest.test_case "take/skip/eat" `Quick test_cursor_take_skip;
        Alcotest.test_case "string escapes" `Quick test_string_escapes;
        Alcotest.test_case "number forms" `Quick test_lex_number_forms;
      ] );
    ( "degenerate-programs",
      [
        Alcotest.test_case "empty programs" `Quick test_empty_programs;
        Alcotest.test_case "single token" `Quick test_single_token_program;
        Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
        Alcotest.test_case "long flat program (fig 6)" `Quick test_long_flat_program;
        Alcotest.test_case "unicode strings" `Quick test_unicode_strings;
      ] );
    ( "failure-injection",
      [
        Alcotest.test_case "pipeline skips bad files" `Quick test_pipeline_skips_bad_files;
        Alcotest.test_case "graph with no unknowns" `Quick test_graph_no_unknowns;
        Alcotest.test_case "training on empty corpus" `Quick test_train_on_empty;
        Alcotest.test_case "duplicate-role pair" `Quick test_duplicate_role_pair;
      ] );
    ("metrics-edges", [ Alcotest.test_case "edges" `Quick test_metrics_edges ]);
    ( "determinism",
      [
        Alcotest.test_case "graph downsampling" `Quick test_graph_downsample_deterministic;
      ] );
  ]

let () = Alcotest.run "edge" suite

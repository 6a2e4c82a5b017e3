(* Child processes for the SIGKILL tests, started by re-executing the
   test binary with a child-mode argv rather than by [Unix.fork]: fork
   is refused once a process has spawned domains, and an earlier test
   in the same binary may already have started the default pool.

   A test binary calls [dispatch] before [Alcotest.run]; in a child,
   argv is [exe; "--child"; name; args...] and the body registered
   under [name] runs instead of the suite. *)

let flag = "--child"

let dispatch bodies =
  match Array.to_list Sys.argv with
  | _ :: f :: name :: args when String.equal f flag -> (
      match List.assoc_opt name bodies with
      | Some body ->
          body args;
          exit 0
      | None ->
          Printf.eprintf "unknown child mode %S\n" name;
          exit 2)
  | _ -> ()

(* Called by a child body once it is about to do the work the parent
   means to interrupt. *)
let ready () =
  print_char 'r';
  flush stdout

(* Start child [name], wait until it calls [ready], let it run for
   [after] seconds, then SIGKILL and reap it. *)
let kill_while_running ?(after = 0.05) name args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let argv = Array.of_list (Sys.executable_name :: flag :: name :: args) in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close wr)
      (fun () ->
        Unix.create_process Sys.executable_name argv Unix.stdin wr Unix.stderr)
  in
  let started =
    Fun.protect
      ~finally:(fun () -> Unix.close rd)
      (fun () -> Unix.read rd (Bytes.create 1) 0 1 = 1)
  in
  if started then begin
    ignore (Unix.select [] [] [] after);
    Unix.kill pid Sys.sigkill
  end;
  ignore (Unix.waitpid [] pid);
  if not started then failwith ("child " ^ name ^ " exited before it was ready")

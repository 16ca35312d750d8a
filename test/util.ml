(* Shared helpers for the test suites. *)

let contains_sub s sub =
  let ls = String.length s and lsub = String.length sub in
  let rec go i =
    if i + lsub > ls then false
    else if String.sub s i lsub = sub then true
    else go (i + 1)
  in
  go 0

let value = Alcotest.testable Vm.Value.pp Vm.Value.equal

(* The text of [examples/<name>].  The test stanza's deps copy examples/
   beside test/ in the build tree, so it is found from the binary's own
   directory, whatever the working directory. *)
let examples_dir =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    "examples"

let read_example name =
  In_channel.with_open_bin (Filename.concat examples_dir name)
    In_channel.input_all

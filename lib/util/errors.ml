(* The designated raising module: nettomo-lint's [bare-failwith] rule
   forbids bare [failwith] / [invalid_arg] everywhere in lib/ except
   here, so every escape hatch is greppable and carries a typed or at
   least uniformly-formatted payload. *)

exception Error of string

let () =
  Printexc.register_printer (function
    | Error msg -> Some (Printf.sprintf "Nettomo error: %s" msg)
    | _ -> None)

let invalid_arg = Stdlib.invalid_arg

let invalid_argf fmt = Printf.ksprintf Stdlib.invalid_arg fmt

let error msg = raise (Error msg)

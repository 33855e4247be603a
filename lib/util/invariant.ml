exception Violation of string

let () =
  Printexc.register_printer (function
    | Violation msg -> Some (Printf.sprintf "Invariant violation: %s" msg)
    | _ -> None)

(* An [Atomic.t] rather than a [ref]: verifier call sites run inside
   Pool worker domains, and an atomic read is the defined way to share
   the switch across domains (same cost as a ref read on the fast
   path). *)
let enabled_flag =
  Atomic.make
    (match Sys.getenv_opt "NETTOMO_CHECK" with
    | None | Some "" | Some "0" | Some "false" -> false
    | Some _ -> true)

let enabled () = Atomic.get enabled_flag

let with_enabled b f =
  let saved = Atomic.get enabled_flag in
  Atomic.set enabled_flag b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled_flag saved) f

let violation msg = raise (Violation msg)

let violationf fmt = Printf.ksprintf (fun msg -> raise (Violation msg)) fmt

let require cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Violation msg)) fmt

let check f = if Atomic.get enabled_flag then f ()

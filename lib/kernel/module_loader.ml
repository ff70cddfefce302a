let override_prefix = "sys_"

(* A symbol [sys_<name>] overrides the syscall <name> — resolved to
   its number in the {!Syscall_abi} table, the same numbering ring
   submissions use.  A name outside the table is reported and skipped
   rather than registered under a string nothing will ever look up. *)
let overrides_of_image (k : Kernel.t) (image : Vg_compiler.Linker.image) =
  List.filter_map
    (fun (s : Vg_compiler.Native.symbol) ->
      let n = s.Vg_compiler.Native.name in
      if String.length n > String.length override_prefix
         && String.sub n 0 (String.length override_prefix) = override_prefix
      then begin
        let call = String.sub n 4 (String.length n - 4) in
        match Syscall_abi.Sysno.of_name call with
        | Some sysno -> Some (sysno, n)
        | None ->
            Console.write
              (Machine.console k.Kernel.machine)
              (Printf.sprintf "kernel: module symbol %s names no syscall; ignored" n);
            None
      end
      else None)
    image.Vg_compiler.Linker.native.Vg_compiler.Native.symbols

type load_error =
  | Compile_rejected of string
  | Cache_refused of Vg_compiler.Trans_cache.find_error

let describe_load_error = function
  | Compile_rejected msg -> "compile rejected: " ^ msg
  | Cache_refused e -> Vg_compiler.Trans_cache.describe_find_error e

let errno_of_load_error (_ : load_error) = Errno.ENOEXEC

let reject (k : Kernel.t) ~name err =
  Machine.emit k.Kernel.machine
    (Obs.Event.Security
       {
         subsystem = "image-verify";
         detail =
           Printf.sprintf "module %s refused: %s" name (describe_load_error err);
       });
  Error err

let load (k : Kernel.t) ~name program =
  let mode =
    match Kernel.mode k with
    | Sva.Native_build -> Vg_compiler.Pipeline.Native_build
    | Sva.Virtual_ghost -> Vg_compiler.Pipeline.Virtual_ghost
  in
  let mitigation = k.Kernel.spec_mitigation in
  match Vg_compiler.Pipeline.compile_kernel_code ~mode ~mitigation program with
  | exception Vg_compiler.Pipeline.Rejected msg ->
      reject k ~name (Compile_rejected msg)
  | compiled -> (
      (* The VM caches and signs the translation; load back through the
         verifying path, as the OS would at module insertion.  Under
         Virtual Ghost the image is instrumented, so the cache re-proves
         the sandbox/CFI invariants before handing it back. *)
      let cache = Sva.translation_cache k.Kernel.sva in
      let instrumented = Kernel.mode k = Sva.Virtual_ghost in
      Vg_compiler.Trans_cache.add cache ~name ~instrumented ~mitigation
        compiled.Vg_compiler.Pipeline.linked;
      (* Under the compiled engine, ask the cache for the
         closure-compiled artifact: [find_compiled] is the only way to
         obtain one, and it runs the image verifier first, so an
         unverifiable image is refused on exactly the same path (and
         with the same error) as under the slot executor. *)
      let looked_up =
        match k.Kernel.engine with
        | Vg_compiler.Exec_engine.Compiled -> (
            match Vg_compiler.Trans_cache.find_compiled cache ~name with
            | Error e -> Error e
            | Ok artifact ->
                Ok (Vg_compiler.Exec_compile.image artifact, Some artifact))
        | Vg_compiler.Exec_engine.Slots -> (
            match Vg_compiler.Trans_cache.find cache ~name with
            | Error e -> Error e
            | Ok image -> Ok (image, None))
      in
      match looked_up with
      | Error e -> reject k ~name (Cache_refused e)
      | Ok (image, artifact) ->
          let overrides = overrides_of_image k image in
          List.iter
            (fun (sysno, func) ->
              Hashtbl.replace k.Kernel.overrides sysno
                { Kernel.image; func; compiled = artifact })
            overrides;
          Hashtbl.replace k.Kernel.modules name (List.map fst overrides);
          Machine.emit k.Kernel.machine
            (Obs.Event.Module_load { name; overrides = List.length overrides });
          Console.write
            (Machine.console k.Kernel.machine)
            (Printf.sprintf "kernel: loaded module %s (%d syscall overrides)" name
               (List.length overrides));
          Ok ())

let unload (k : Kernel.t) ~name =
  match Hashtbl.find_opt k.Kernel.modules name with
  | None -> ()
  | Some sysnos ->
      List.iter (Hashtbl.remove k.Kernel.overrides) sysnos;
      Hashtbl.remove k.Kernel.modules name

let loaded_modules (k : Kernel.t) =
  List.sort compare (Hashtbl.fold (fun name _ acc -> name :: acc) k.Kernel.modules [])

let loaded_overrides (k : Kernel.t) =
  Hashtbl.fold
    (fun sysno _ acc -> Syscall_abi.Sysno.to_name sysno :: acc)
    k.Kernel.overrides []

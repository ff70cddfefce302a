type mode = Native_build | Virtual_ghost

type compiled = {
  image : Native.image;
  linked : Linker.image;
  mode : mode;
}

exception Rejected of string

let verify_or_reject program =
  match Verify.check program with
  | Ok () -> ()
  | Error errors ->
      let msg =
        String.concat "; " (List.map (Format.asprintf "%a" Verify.pp_error) errors)
      in
      raise (Rejected ("IR verification failed: " ^ msg))

let compile_kernel_code ?(mode = Virtual_ghost) ?(optimize = false)
    ?(mitigation = Mitigation.Off) ?base ?globals program =
  verify_or_reject program;
  let program = if optimize then Opt_pass.optimize_program program else program in
  match mode with
  | Native_build ->
      let image = Codegen.compile ?base ?globals ~cfi:false program in
      (match Cfi_pass.validate_uninstrumented image with
      | Ok () -> ()
      | Error _ -> raise (Rejected "native build contains CFI artifacts"));
      { image; linked = Linker.link image; mode }
  | Virtual_ghost ->
      (* the mitigation selects the masking variant; the fence pass then
         adds its lfences between each mask window and its access *)
      let instrumented = Sandbox_pass.instrument_program ~mitigation program in
      let instrumented =
        match mitigation with
        | Mitigation.Fence -> Fence_pass.instrument_program instrumented
        | Mitigation.Off | Mitigation.Safe_mask -> instrumented
      in
      let image = Codegen.compile ?base ?globals ~cfi:true instrumented in
      (match Cfi_pass.validate image with
      | Ok () -> ()
      | Error violations ->
          let msg =
            String.concat "; "
              (List.map (fun (v : Cfi_pass.violation) -> v.message) violations)
          in
          raise (Rejected ("CFI audit failed: " ^ msg)));
      { image; linked = Linker.link image; mode }

let compile_application_code ?(mmap_callees = [ "extern.mmap" ]) ?base program =
  verify_or_reject program;
  let instrumented = Mmap_mask_pass.instrument_program ~mmap_callees program in
  let image = Codegen.compile ?base ~cfi:false instrumented in
  { image; linked = Linker.link image; mode = Native_build }

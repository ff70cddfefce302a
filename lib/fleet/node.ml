type t = {
  config : Node_config.t;
  machine : Machine.t;
  kernel : Kernel.t;
}

let boot_kernel (config : Node_config.t) machine =
  Kernel.boot ~frame_limit:config.Node_config.frame_limit
    ~engine:config.Node_config.engine
    ~spec_mitigation:config.Node_config.spec_mitigation
    ~mode:config.Node_config.mode machine

let boot (config : Node_config.t) =
  let machine =
    Machine.create ~cpus:config.cpus ~phys_frames:config.phys_frames
      ~disk_sectors:config.disk_sectors ?obs:config.obs
      ~spec_depth:config.spec_depth ~seed:config.seed ()
  in
  { config; machine; kernel = boot_kernel config machine }

let reboot t = { t with kernel = boot_kernel t.config t.machine }

let machine t = t.machine
let kernel t = t.kernel
let net t = t.kernel.Kernel.net

let launch t ?image ~ghosting body = Runtime.launch t.kernel ?image ~ghosting body

let listen t ~port = Netstack.listen t.kernel.Kernel.net ~port

let www t ~path data =
  let fs = t.kernel.Kernel.fs in
  match Diskfs.create fs path with
  | Error e -> Error e
  | Ok ino -> (
      match Diskfs.write fs ~ino ~off:0 data with
      | Ok _ -> Ok ()
      | Error e -> Error e)

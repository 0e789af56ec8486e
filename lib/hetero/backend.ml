module Hardware = Mikpoly_accel.Hardware

type t = {
  bk_name : string;
  bk_kind : Hardware.kind;
  bk_fingerprint : string;
  bk_pes : int;
  bk_replicas : int;
  bk_engine : Mikpoly_serve.Scheduler.engine;
}

let kind_name = function Hardware.Gpu -> "gpu" | Hardware.Npu -> "npu"

let make ?name ~hw ~replicas engine =
  if replicas < 1 then invalid_arg "Backend: replicas must be >= 1";
  {
    bk_name = (match name with Some n -> n | None -> kind_name hw.Hardware.kind);
    bk_kind = hw.Hardware.kind;
    bk_fingerprint = Hardware.fingerprint hw;
    bk_pes = hw.Hardware.num_pes;
    bk_replicas = replicas;
    bk_engine = engine;
  }

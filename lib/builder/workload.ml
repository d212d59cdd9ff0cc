let slot_layers ~ces ~first ~last ~slot =
  if ces < 1 then invalid_arg "Workload.slot_layers: ces < 1";
  let rec collect i = if i > last then [] else i :: collect (i + ces) in
  collect (first + slot)

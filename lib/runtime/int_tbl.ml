include Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* Fold the high word down, multiply by an odd constant (a bijection
     that spreads every input bit upwards), then fold the well-mixed
     high bits back over the low ones the bucket index is taken from. *)
  let hash k =
    let h = (k lxor (k lsr 32)) * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land max_int
end)

let check_n n = if n <= 0 then invalid_arg "Bounds: n must be positive"

let longlived_lower n =
  check_n n;
  n / 6

let longlived_upper n =
  check_n n;
  max 0 (n - 1)

let log2_ceil n =
  check_n n;
  let rec go acc pow = if pow >= n then acc else go (acc + 1) (2 * pow) in
  go 0 1

let oneshot_lower n =
  check_n n;
  let v = sqrt (2. *. float_of_int n) -. float_of_int (log2_ceil n) -. 2. in
  Float.max 0. v

let oneshot_upper n =
  check_n n;
  Timestamp.Sqrt.registers_for_calls n

let simple_upper n =
  check_n n;
  (n + 1) / 2

let grid_width n =
  check_n n;
  int_of_float (Float.sqrt (2. *. float_of_int n))

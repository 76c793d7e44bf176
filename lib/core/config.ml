module Datapath = Wp_soc.Datapath

(* Keyed by position in [Datapath.all_connections]. *)
type t = int array

let connection_count = List.length Datapath.all_connections

let index conn =
  let rec scan i = function
    | [] -> assert false
    | c :: rest -> if c = conn then i else scan (i + 1) rest
  in
  scan 0 Datapath.all_connections

let zero = Array.make connection_count 0

let get t conn = t.(index conn)

let set t conn n =
  if n < 0 then invalid_arg "Config.set: negative relay station count";
  let fresh = Array.copy t in
  fresh.(index conn) <- n;
  fresh

let only conn n = set zero conn n

let uniform ?(except = []) n =
  List.fold_left
    (fun acc conn -> if List.mem conn except then acc else set acc conn n)
    zero Datapath.all_connections

let of_alist alist = List.fold_left (fun acc (conn, n) -> set acc conn n) zero alist

let to_alist t = List.map (fun conn -> (conn, get t conn)) Datapath.all_connections

let to_fun t conn = get t conn

let to_array = Array.copy

let of_array counts =
  if Array.length counts <> connection_count then
    invalid_arg "Config.of_array: one count per connection expected";
  if Array.exists (fun n -> n < 0) counts then
    invalid_arg "Config.of_array: negative relay station count";
  Array.copy counts

let total_connections t = Array.fold_left ( + ) 0 t

let channels_per_connection conn =
  match conn with
  | Datapath.CU_IC | Datapath.RF_ALU -> 2
  | Datapath.CU_RF | Datapath.CU_AL | Datapath.CU_DC | Datapath.RF_DC | Datapath.ALU_CU
  | Datapath.ALU_RF | Datapath.ALU_DC | Datapath.DC_RF ->
    1

let total_channels t =
  List.fold_left
    (fun acc (conn, n) -> acc + (n * channels_per_connection conn))
    0 (to_alist t)

let equal = ( = )

let digest t =
  (* Content-addressed key material for the experiment cache: stable
     across processes (unlike [Hashtbl.hash]) and injective on the count
     vector.  The array is in [Datapath.all_connections] order. *)
  let buf = Buffer.create 32 in
  Array.iter
    (fun n ->
      Buffer.add_string buf (string_of_int n);
      Buffer.add_char buf ',')
    t;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let describe t =
  let parts =
    List.filter_map
      (fun (conn, n) ->
        if n = 0 then None else Some (Printf.sprintf "%s=%d" (Datapath.connection_name conn) n))
      (to_alist t)
  in
  match parts with
  | [] -> "none"
  | _ -> String.concat " " parts

let pp ppf t = Format.pp_print_string ppf (describe t)

(* The CLI/service grammar: "CU-AL=1,DC-RF=2", or ""/"none" for zero.
   Shared by [wp_cli] argument parsing and the serve daemon. *)
let of_string s =
  if String.trim s = "" || String.lowercase_ascii (String.trim s) = "none" then Ok zero
  else begin
    let parts = String.split_on_char ',' s in
    let parse_part acc part =
      match acc with
      | Error _ as e -> e
      | Ok config ->
        (match String.split_on_char '=' (String.trim part) with
        | [ conn_name; count ] ->
          (match (Datapath.connection_of_name conn_name, int_of_string_opt count) with
          | Some conn, Some n when n >= 0 -> Ok (set config conn n)
          | None, _ -> Error (Printf.sprintf "unknown connection %S" conn_name)
          | _, (Some _ | None) -> Error (Printf.sprintf "bad count in %S" part))
        | _ -> Error (Printf.sprintf "expected CONN=N, got %S" part))
    in
    List.fold_left parse_part (Ok zero) parts
  end

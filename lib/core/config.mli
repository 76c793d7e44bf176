(** Relay-station configurations: how many RS each connection carries.

    A configuration is a total map from the ten named connections of the
    case study to RS counts, with the algebra needed to express every row
    of the paper's Table 1. *)

type t

val zero : t
(** The ideal system: no relay stations. *)

val get : t -> Wp_soc.Datapath.connection -> int

val set : t -> Wp_soc.Datapath.connection -> int -> t
(** Functional update. @raise Invalid_argument on a negative count. *)

val only : Wp_soc.Datapath.connection -> int -> t
(** RS on a single connection. *)

val uniform : ?except:Wp_soc.Datapath.connection list -> int -> t
(** The same count everywhere, except the listed connections (0 there). *)

val of_alist : (Wp_soc.Datapath.connection * int) list -> t
(** Unlisted connections get 0; later entries win. *)

val to_alist : t -> (Wp_soc.Datapath.connection * int) list
(** In {!Wp_soc.Datapath.all_connections} order, including zeros. *)

val to_fun : t -> Wp_soc.Datapath.connection -> int

val index : Wp_soc.Datapath.connection -> int
(** Position in {!Wp_soc.Datapath.all_connections}: the index of the
    connection's count in {!to_array}'s vector. *)

val to_array : t -> int array
(** Fresh count vector, indexed by {!index}. *)

val of_array : int array -> t
(** Inverse of {!to_array} (copies its argument).
    @raise Invalid_argument on a wrong length or a negative count. *)

val total_connections : t -> int
(** Sum of per-connection counts (the paper's placement budget). *)

val total_channels : t -> int
(** Sum weighted by channels per connection (CU-IC and RF-ALU count
    double) — the physical RS count. *)

val equal : t -> t -> bool

val digest : t -> string
(** Stable hex digest of the full count vector (equal configurations give
    equal digests, distinct ones distinct digests) — the configuration
    component of {!Runner}'s content-addressed result-cache keys. *)

val pp : Format.formatter -> t -> unit
val describe : t -> string
(** Compact human description, e.g. ["ALU-RF=1 DC-RF=2"] or ["none"]. *)

val of_string : string -> (t, string) result
(** Parse ["CU-AL=1,DC-RF=2"] (or [""] / ["none"] for {!zero}); the
    inverse of {!describe} up to ordering.  One-line [Error] on an
    unknown connection name or malformed count. *)

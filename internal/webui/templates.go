package webui

// pageTemplates holds every HTML template of the web UI. The pages mirror the
// screens shown in the paper: the dashboard, the project administration page
// with the constraint-entry form (Figure 3), the worker page with editable
// human factors and the eligible-task list (Figure 4), and the task page with
// the form-based task UI used during collaboration (Figure 5).
const pageTemplates = `
{{define "layout_head"}}
<!doctype html>
<html><head><meta charset="utf-8"><title>Crowd4U</title>
<style>
body{font-family:sans-serif;margin:2em;max-width:60em}
table{border-collapse:collapse}td,th{border:1px solid #ccc;padding:4px 8px}
nav a{margin-right:1em}
form.factors label{display:block;margin:4px 0}
.notice-action-required{color:#b00}
.notice-info{color:#555}
</style></head><body>
<nav><a href="/">Dashboard</a><a href="/admin/projects">Projects</a><a href="/admin/projects/new">Register project</a></nav>
{{end}}

{{define "layout_foot"}}</body></html>{{end}}

{{define "dashboard"}}
{{template "layout_head"}}
<h1>Crowd4U</h1>
<p>{{.Projects}} projects · {{.Workers}} workers · {{.Tasks}} tasks</p>
<form method="post" action="/admin/cycle"><button type="submit">Run one deployment cycle</button>
(generate tasks from the CyLog programs, assign teams, execute them with the simulated crowd)</form>
<h2>Task pool</h2>
<table><tr><th>state</th><th>count</th></tr>
{{range $state, $n := .TaskCounts}}<tr><td>{{$state}}</td><td>{{$n}}</td></tr>{{end}}
</table>
<h2>Recent events</h2>
<table><tr><th>kind</th><th>project</th><th>task</th><th>message</th></tr>
{{range .Events}}<tr><td>{{.Kind}}</td><td>{{.Project}}</td><td>{{.Task}}</td><td>{{.Message}}</td></tr>{{end}}
</table>
{{template "layout_foot"}}
{{end}}

{{define "projects"}}
{{template "layout_head"}}
<h1>Projects</h1>
<table><tr><th>id</th><th>name</th><th>status</th><th>scheme</th></tr>
{{range .}}<tr><td><a href="/admin/projects/{{.Description.ID}}">{{.Description.ID}}</a></td>
<td>{{.Description.Name}}</td><td>{{.Status}}</td><td>{{.Description.Scheme}}</td></tr>{{end}}
</table>
{{template "layout_foot"}}
{{end}}

{{define "factorsFields"}}
<label>Required skill <input name="required_skill"></label>
<label>Minimum per-worker skill (0..1) <input name="min_skill"></label>
<label>Minimum team skill <input name="min_team_skill"></label>
<label>Native language required <input name="native_language"></label>
<label>Languages (comma separated) <input name="languages"></label>
<label>Region <input name="region"></label>
<label>Require login <input type="checkbox" name="require_login"></label>
<label>Upper critical mass <input name="critical_mass"></label>
<label>Minimum team size <input name="min_team_size"></label>
<label>Cost budget <input name="cost_budget"></label>
<label>Minimum pair affinity (0..1) <input name="min_pair_affinity"></label>
<label>Recruitment window (minutes) <input name="recruitment_minutes"></label>
<label>Assignment algorithm <select name="algorithm">
<option value="">default (greedy)</option><option>exact</option><option>greedy</option>
<option>star</option><option>grasp</option><option>random</option><option>skill-only</option>
</select></label>
{{end}}

{{define "projectForm"}}
{{template "layout_head"}}
<h1>Register a project</h1>
<form class="factors" method="post" action="/admin/projects">
<label>Name <input name="name" required></label>
<label>Requester <input name="requester"></label>
<label>Summary <textarea name="summary"></textarea></label>
<label>Collaboration scheme <select name="scheme">
<option>sequential</option><option>simultaneous</option><option>hybrid</option><option>individual</option>
</select></label>
<label>CyLog project description <textarea name="cylog" rows="12" cols="80"></textarea></label>
<h2>Desired human factors for task assignment</h2>
{{template "factorsFields"}}
<button type="submit">Register</button>
</form>
{{template "layout_foot"}}
{{end}}

{{define "projectAdmin"}}
{{template "layout_head"}}
<h1>Project {{.Admin.Description.Name}} ({{.Admin.Description.ID}})</h1>
<p>Status: {{.Admin.Status}} · Scheme: {{.Admin.Description.Scheme}} · Requester: {{.Admin.Description.Requester}}</p>
<p>{{.Admin.Description.Summary}}</p>

<h2>Notices</h2>
<ul>{{range .Notices}}<li class="notice-{{.Level}}">[{{.Level}}] {{.Message}}</li>{{else}}<li>none</li>{{end}}</ul>

<h2>Desired human factors (constraint entry form)</h2>
<form class="factors" method="post" action="/admin/projects/{{.Admin.Description.ID}}/factors">
{{template "factorsFields"}}
<button type="submit">Update factors</button>
</form>

<h2>Tasks</h2>
<table><tr><th>id</th><th>title</th><th>scheme</th><th>state</th></tr>
{{range .Tasks}}<tr><td><a href="/tasks/{{.ID}}">{{.ID}}</a></td><td>{{.Title}}</td><td>{{.Scheme}}</td><td>{{.State}}</td></tr>{{end}}
</table>
{{template "layout_foot"}}
{{end}}

{{define "workerPage"}}
{{template "layout_head"}}
<h1>Worker {{.Worker.Name}} ({{.Worker.ID}})</h1>

<h2>Your human factors</h2>
<form class="factors" method="post" action="/workers/{{.Worker.ID}}/factors">
<label>Native languages <input name="native_languages" value="{{range $i, $l := .Worker.Factors.NativeLanguages}}{{if $i}},{{end}}{{$l}}{{end}}"></label>
<label>Other languages <input name="other_languages" value="{{range $i, $l := .Worker.Factors.OtherLanguages}}{{if $i}},{{end}}{{$l}}{{end}}"></label>
<label>Region <input name="region" value="{{.Worker.Factors.Location.Region}}"></label>
<label>Skills (name=value, comma separated) <input name="skills"></label>
<label>SNS / contact id <input name="sns_id" value="{{.Worker.SNSID}}"></label>
<button type="submit">Update</button>
</form>

<h2>Collaborative tasks you are eligible for</h2>
<table><tr><th>task</th><th>title</th><th>scheme</th><th>interested?</th><th></th></tr>
{{$page := .}}
{{range .EligibleTasks}}
<tr><td><a href="/tasks/{{.ID}}">{{.ID}}</a></td><td>{{.Title}}</td><td>{{.Scheme}}</td>
<td>{{if index $page.Interested .ID}}yes{{else}}no{{end}}</td>
<td><form method="post" action="/workers/{{$page.Worker.ID}}/interest">
<input type="hidden" name="task" value="{{.ID}}"><button type="submit">I am interested</button></form></td></tr>
{{else}}<tr><td colspan="5">no eligible tasks right now</td></tr>{{end}}
</table>

<h2>Tasks you undertake</h2>
<ul>{{range .Undertaken}}<li>{{.}}</li>{{else}}<li>none</li>{{end}}</ul>
{{template "layout_foot"}}
{{end}}

{{define "taskPage"}}
{{template "layout_head"}}
<h1>Task {{.Task.Title}} ({{.Task.ID}})</h1>
<p>Scheme: {{.Task.Scheme}} · State: {{.Task.State}} · Project: {{.Task.ProjectID}}</p>
<p>{{.Task.Description}}</p>
{{if .HasTeam}}<p>Suggested team: {{range .Team}}{{.}} {{end}}</p>{{end}}

{{if .Result}}
<h2>Team result</h2>
<p>Submitted by {{.Result.SubmittedBy}} for {{.Result.TeamID}}</p>
<table>{{range $k, $v := .Result.Fields}}<tr><th>{{$k}}</th><td>{{$v}}</td></tr>{{end}}</table>
{{else}}
<h2>Task form</h2>
<form method="post" action="/tasks/{{.Task.ID}}/answer">
<label>Your worker id <input name="worker" required></label>
{{range .Task.Form.Fields}}
<label>{{if .Label}}{{.Label}}{{else}}{{.Name}}{{end}}
{{if eq .Kind "textarea"}}<textarea name="{{.Name}}"></textarea>
{{else if eq .Kind "select"}}<select name="{{.Name}}">{{range .Options}}<option>{{.}}</option>{{end}}</select>
{{else}}<input name="{{.Name}}">{{end}}
</label>
{{end}}
<button type="submit">Submit</button>
</form>
{{end}}
{{template "layout_foot"}}
{{end}}
`
